package wrapper

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"mix/internal/buffer"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/objectdb"
	"mix/internal/relational"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// rootCase is one wrapper under the root-fill rule: the document it
// exports, and the holes whose fills its root fill carries, keyed by
// the depth of the first-child spine node whose child list each fill
// is.
type rootCase struct {
	name    string
	srv     lxp.Server
	uri     string
	doc     *xmltree.Tree
	carried map[int]string
}

// treeCases serves each document through a TreeServer for every chunk
// size and inline limit of the grid; a spine node the server does not
// inline carries its own first chunk.
func treeCases(docs map[string]*xmltree.Tree) []rootCase {
	var out []rootCase
	for name, doc := range docs {
		for _, chunk := range []int{0, 1, 4} {
			for _, inline := range []int{0, 1, 8} {
				carried := map[int]string{}
				path := ""
				for d, n := 0, doc; ; d, n = d+1, n.Children[0] {
					if n.IsLeaf() || inline == 0 || n.Size() <= inline {
						break
					}
					carried[d] = path + ":0"
					if path == "" {
						path = "0"
					} else {
						path += "/0"
					}
				}
				out = append(out, rootCase{
					name: fmt.Sprintf("xml %s chunk %d inline %d", name, chunk, inline),
					srv:  &lxp.TreeServer{Tree: doc, Chunk: chunk, InlineLimit: inline},
					uri:  "u", doc: doc, carried: carried,
				})
			}
		}
	}
	return out
}

// deepSections is sec[sec[…[item×4]…]×2]×3, depth levels deep: a
// document whose first child is itself too big to inline, level after
// level.
func deepSections(depth int) *xmltree.Tree {
	if depth == 0 {
		return xmltree.Elem("sec", xmltree.Text("item", "a"), xmltree.Text("item", "b"),
			xmltree.Text("item", "c"), xmltree.Text("item", "d"))
	}
	return xmltree.Elem("sec", deepSections(depth-1), deepSections(depth-1), deepSections(depth-1))
}

func relationalCase(name string, db *relational.DB, chunk int) rootCase {
	c := rootCase{name: name, srv: &Relational{DB: db, ChunkRows: chunk}, uri: db.Name,
		doc: relationalTree(db), carried: map[int]string{}}
	if names := db.TableNames(); len(names) > 0 {
		c.carried[1] = db.Name + "." + names[0]
	}
	return c
}

// oodbTree renders db the way the OODB wrapper exports it, with every
// reference resolved to the object it names: the whole document of an
// object graph without cycles.
func oodbTree(db *objectdb.DB) *xmltree.Tree {
	root := xmltree.Elem(db.Name)
	for _, c := range db.Classes() {
		class := xmltree.Elem(c)
		for _, oid := range db.Extent(c) {
			class.Children = append(class.Children, oodbObject(db, oid))
		}
		root.Children = append(root.Children, class)
	}
	return root
}

func oodbObject(db *objectdb.DB, oid objectdb.OID) *xmltree.Tree {
	o, err := db.Get(oid)
	if err != nil {
		panic(err)
	}
	el := xmltree.Elem(o.Class, xmltree.Text("oid", string(o.OID)))
	for _, f := range o.Fields {
		el.Children = append(el.Children, oodbValue(db, f.Name, f.Value))
	}
	return el
}

func oodbValue(db *objectdb.DB, name string, v objectdb.Value) *xmltree.Tree {
	switch {
	case v.IsScalar():
		return xmltree.Text(name, v.Scalar)
	case v.IsRef():
		return xmltree.Elem(name, oodbObject(db, v.Ref))
	}
	f := xmltree.Elem(name)
	for i, item := range v.List {
		f.Children = append(f.Children, oodbValue(db, fmt.Sprintf("item%d", i), item))
	}
	return f
}

// namespacedOODB holds a class ns:Person, whose extent hole ids hold
// the class's own colon, next to two plain classes; persons reference
// departments, without cycles.
func namespacedOODB(persons int) *objectdb.DB {
	db := objectdb.NewDB("org")
	db.Put("d1", "Dept", objectdb.F("title", objectdb.S("R&D")))
	db.Put("d2", "Dept", objectdb.F("title", objectdb.S("Ops")))
	for i := 0; i < persons; i++ {
		db.Put(objectdb.OID(fmt.Sprintf("p%d", i)), "ns:Person",
			objectdb.F("name", objectdb.S(fmt.Sprintf("n%d", i))),
			objectdb.F("dept", objectdb.R(objectdb.OID(fmt.Sprintf("d%d", 1+i%2)))),
			objectdb.F("tags", objectdb.L(objectdb.S("x"), objectdb.R("d1"))))
	}
	db.Put("a1", "Addr", objectdb.F("city", objectdb.S("Irvine")))
	return db
}

func rootCases() []rootCase {
	cases := treeCases(map[string]*xmltree.Tree{
		"catalog":   workload.Books("az", 9, 3),
		"sectioned": deepSections(2),
		"leaf":      xmltree.Leaf("empty"),
	})

	none := relational.NewDB("none")
	one := relational.NewDB("one")
	homes := one.Create("homes", "addr", "zip")
	for i := 0; i < 7; i++ {
		homes.MustInsert(fmt.Sprintf("addr-%d", i), fmt.Sprintf("912%02d", i%3))
	}
	three := relational.NewDB("three")
	a := three.Create("a", "v")
	for i := 0; i < 5; i++ {
		a.MustInsert(fmt.Sprintf("a%d", i))
	}
	three.Create("b", "v") // empty
	three.Create("c", "v").MustInsert("c0")
	dotted := relational.NewDB("my.db")
	for _, name := range []string{"t", "t.2", "t.4"} {
		tb := dotted.Create(name, "v")
		for i := 0; i < 9; i++ {
			tb.MustInsert(fmt.Sprintf("%s/%d", name, i))
		}
	}
	for _, chunk := range []int{1, 3, 100} {
		cases = append(cases,
			relationalCase(fmt.Sprintf("relational no tables chunk %d", chunk), none, chunk),
			relationalCase(fmt.Sprintf("relational one table chunk %d", chunk), one, chunk),
			relationalCase(fmt.Sprintf("relational three tables chunk %d", chunk), three, chunk),
			relationalCase(fmt.Sprintf("relational dotted names chunk %d", chunk), dotted, chunk))
	}

	for _, chunk := range []int{1, 2} {
		for _, db := range []*objectdb.DB{namespacedOODB(5), onlyNamespaced()} {
			cases = append(cases, rootCase{
				name: fmt.Sprintf("oodb %s chunk %d", db.Name, chunk),
				srv:  &OODB{DB: db, ChunkObjects: chunk}, uri: db.Name, doc: oodbTree(db),
				carried: map[int]string{1: "ext:" + db.Classes()[0] + ":0"},
			})
		}
	}

	for _, page := range []int{1, 4, 50} {
		cat := workload.Books("web", 13, 2)
		cases = append(cases, rootCase{name: fmt.Sprintf("web page %d", page),
			srv: &Web{Name: "web", Catalog: cat, PageSize: page}, uri: "web", doc: cat, carried: map[int]string{}})
	}
	return cases
}

// onlyNamespaced has namespaced classes only, so the root fill carries
// a namespaced extent's first chunk and its continuation names it.
func onlyNamespaced() *objectdb.DB {
	db := objectdb.NewDB("ns")
	for i := 0; i < 4; i++ {
		db.Put(objectdb.OID(fmt.Sprintf("q%d", i)), "ns:Person", objectdb.F("name", objectdb.S(fmt.Sprintf("m%d", i))))
		db.Put(objectdb.OID(fmt.Sprintf("r%d", i)), "ns:Place", objectdb.F("city", objectdb.S(fmt.Sprintf("c%d", i))))
	}
	return db
}

// TestRootFillAnswersChaseFirst holds every wrapper to the root-fill
// rule: the fill of the root hole carries the first chunk of each child
// list along the root's first-child spine, down to the first closed
// node. For every case it checks that the spine holds no hole; that a
// counted buffer's Root() and Downs along first children to the end of
// the spine cost exactly get_root and one fill; that the buffer
// materializes the wrapper's whole document; and that each carried
// list is the fill of its hole — so later fills are what they were —
// which bounds the root fill by the fill it replaces plus one first
// chunk per spine level.
func TestRootFillAnswersChaseFirst(t *testing.T) {
	for _, c := range rootCases() {
		id, err := c.srv.GetRoot(c.uri)
		if err != nil {
			t.Fatalf("%s: get_root: %v", c.name, err)
		}
		trees, err := c.srv.Fill(id)
		if err != nil || len(trees) != 1 {
			t.Fatalf("%s: root fill %v, %v", c.name, trees, err)
		}
		root := trees[0]

		var spine []*xmltree.Tree
		for n := root; ; n = n.Children[0] {
			if n.IsHole() {
				t.Fatalf("%s: the root fill's first-child spine reaches %s", c.name, n)
			}
			spine = append(spine, n)
			if n.IsLeaf() {
				break
			}
		}

		// Each carried list is its hole's fill, except that its first
		// item is the next spine level when that level is carried too.
		// Folding the outermost carried list back to its hole gives the
		// root fill without the rule; the rule adds at most one first
		// chunk per level.
		extra := 0
		for d, hole := range c.carried {
			if d >= len(spine) {
				t.Fatalf("%s: the spine %v ends above depth %d, which carries %q", c.name, root, d, hole)
			}
			want, err := c.srv.Fill(hole)
			if err != nil {
				t.Fatalf("%s: fill %q: %v", c.name, hole, err)
			}
			got := spine[d].Children
			if len(got) != len(want) {
				t.Fatalf("%s: depth %d ships %v, fill %q returns %v", c.name, d, got, hole, want)
			}
			_, next := c.carried[d+1]
			for i := range want {
				if i == 0 && next {
					if got[0].Label != want[0].Label {
						t.Fatalf("%s: depth %d ships %s first, fill %q returns %s", c.name, d, got[0], hole, want[0])
					}
					continue
				}
				if !xmltree.Equal(got[i], want[i]) {
					t.Fatalf("%s: depth %d item %d ships %s, fill %q returns %s", c.name, d, i, got[i], hole, want[i])
				}
			}
			for _, w := range want {
				extra += w.Size()
			}
		}
		folded := root.Clone()
		if len(c.carried) > 0 {
			d := slices.Min(slices.Collect(maps.Keys(c.carried)))
			n := folded
			for range d {
				n = n.Children[0]
			}
			n.Children = []*xmltree.Tree{xmltree.Hole(c.carried[d])}
		}
		if root.Size() > folded.Size()+extra {
			t.Fatalf("%s: root fill has %d nodes, more than %d without the rule plus %d carried",
				c.name, root.Size(), folded.Size(), extra)
		}

		cs := lxp.NewCounting(c.srv)
		b, _ := buffer.New(cs, c.uri)
		p, err := b.Root()
		for err == nil && p != nil {
			p, err = b.Down(p)
		}
		if err != nil {
			t.Fatalf("%s: descent: %v", c.name, err)
		}
		if msgs := cs.Counters.Msgs.Load(); msgs != 2 {
			t.Fatalf("%s: Root and the first-child descent cost %d messages, want get_root and one fill", c.name, msgs)
		}
		got, err := nav.Materialize(b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !xmltree.Equal(got, c.doc) {
			t.Fatalf("%s: buffer materialized\n%s\nwant\n%s", c.name, got, c.doc)
		}
	}
}

// TestOODBNamespacedClass: a class whose name holds a colon is
// explored like any other — its extent holes are read at their last
// colon — and a buffer over it materializes the whole document.
func TestOODBNamespacedClass(t *testing.T) {
	db := namespacedOODB(6)
	w := &OODB{DB: db, ChunkObjects: 1}
	trees, err := w.Fill("ext:ns:Person:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 3 || trees[0].Find("oid").TextContent() != "p2" || trees[2].HoleID() != "ext:ns:Person:4" {
		t.Fatalf("ext:ns:Person:2 = %v", trees)
	}
	for _, bad := range []string{"ext:ns:Person:x", "ext:ns:Person:", "ext:7", "ext:ns:Person:99"} {
		if _, err := w.Fill(bad); err == nil {
			t.Errorf("Fill(%q): expected error", bad)
		}
	}
	b, _ := buffer.New(w, "org")
	got, err := nav.Materialize(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := oodbTree(db); !xmltree.Equal(got, want) {
		t.Fatalf("buffer materialized\n%s\nwant\n%s", got, want)
	}
}
