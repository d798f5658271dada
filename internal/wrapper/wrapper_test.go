package wrapper

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mix/internal/algebra"
	"mix/internal/buffer"
	"mix/internal/core"
	"mix/internal/eager"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/objectdb"
	"mix/internal/pathexpr"
	"mix/internal/relational"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// compile prepares plan as an uncached view and compiles it on e.
func compile(e *core.Engine, plan algebra.Op) (*core.Query, error) {
	v, err := core.Prepare(plan, "")
	if err != nil {
		return nil, err
	}
	return e.Compile(v)
}

func sampleDB() *relational.DB {
	db := relational.NewDB("realestate")
	homes := db.Create("homes", "addr", "zip")
	for i := 0; i < 7; i++ {
		homes.MustInsert(fmt.Sprintf("addr-%d", i), fmt.Sprintf("912%02d", i%3))
	}
	schools := db.Create("schools", "dir", "zip")
	schools.MustInsert("Smith", "91200")
	return db
}

func TestRelationalWrapperShape(t *testing.T) {
	w := &Relational{DB: sampleDB(), ChunkRows: 3}
	id, err := w.GetRoot("realestate")
	if err != nil || id != "realestate" {
		t.Fatalf("GetRoot: %q %v", id, err)
	}
	if _, err := w.GetRoot("other"); err == nil {
		t.Fatal("wrong uri must fail")
	}

	// Database level: the schema, the first table as the table fill
	// returns it, and a hole for every other table.
	trees, err := w.Fill("realestate")
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 || trees[0].Label != "realestate" {
		t.Fatalf("db fill = %v", trees)
	}
	if len(trees[0].Children) != 2 ||
		trees[0].Children[0].Label != "homes" ||
		trees[0].Children[1].Label != "schools" ||
		trees[0].Children[1].Children[0].HoleID() != "realestate.schools" {
		t.Fatalf("schema = %v", trees[0])
	}

	// Table level: 3 rows + continuation hole.
	rows, err := w.Fill("realestate.homes")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || !rows[3].IsHole() || rows[3].HoleID() != "realestate.homes.3" {
		t.Fatalf("table fill = %v", rows)
	}
	if shipped := xmltree.Elem("homes", rows...); !xmltree.Equal(trees[0].Children[0], shipped) {
		t.Fatalf("db fill ships %v, the table fill %v", trees[0].Children[0], shipped)
	}
	if rows[0].Label != "row0" || rows[0].Find("addr").TextContent() != "addr-0" {
		t.Fatalf("row rendering = %v", rows[0])
	}
	// Complete tuples: no holes inside rows.
	for _, r := range rows[:3] {
		if r.IsOpen() {
			t.Fatalf("row should be complete: %v", r)
		}
	}

	// Row level: continue at 3; 7 rows total → rows 3..5 + hole at 6.
	rows2, err := w.Fill("realestate.homes.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 4 || rows2[0].Label != "row3" || rows2[3].HoleID() != "realestate.homes.6" {
		t.Fatalf("row fill = %v", rows2)
	}
	// Last chunk has no trailing hole.
	rows3, err := w.Fill("realestate.homes.6")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows3) != 1 || rows3[0].Label != "row6" {
		t.Fatalf("last fill = %v", rows3)
	}
}

func TestRelationalWrapperErrors(t *testing.T) {
	w := &Relational{DB: sampleDB(), ChunkRows: 2}
	for _, id := range []string{"bogus", "realestate.nope", "realestate.homes.x",
		"realestate.homes.-1", "a.b.c.d", "other.homes"} {
		if _, err := w.Fill(id); err == nil {
			t.Errorf("Fill(%q): expected error", id)
		}
	}
}

func TestRelationalWrapperThroughBuffer(t *testing.T) {
	db := sampleDB()
	for _, chunk := range []int{1, 2, 100} {
		w := &Relational{DB: db, ChunkRows: chunk}
		b, err := buffer.New(w, "realestate")
		if err != nil {
			t.Fatal(err)
		}
		got, err := nav.Materialize(b)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if got.Label != "realestate" {
			t.Fatalf("root = %q", got.Label)
		}
		homes := got.Find("homes")
		if len(homes.Children) != 7 {
			t.Fatalf("chunk %d: %d home rows", chunk, len(homes.Children))
		}
		if homes.Children[6].Label != "row6" {
			t.Fatalf("row order: %v", homes.Children[6].Label)
		}
	}
}

// TestRelationalChunkingReducesFills: a full scan costs exactly the
// fills lxp.ChunkAt takes to cover the table — the database fill
// carries its first chunk — and a larger first fill never costs more
// fills.
func TestRelationalChunkingReducesFills(t *testing.T) {
	const rows = 100
	db := relational.NewDB("big")
	tb := db.Create("t", "v")
	for i := 0; i < rows; i++ {
		tb.MustInsert(fmt.Sprintf("%d", i))
	}
	fills := func(chunk int) int64 {
		cs := lxp.NewCounting(&Relational{DB: db, ChunkRows: chunk})
		b, err := buffer.New(cs, "big")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nav.Materialize(b); err != nil {
			t.Fatal(err)
		}
		return cs.Counters.Fills.Load()
	}
	prev := int64(rows + 2)
	for chunk := 1; chunk <= rows+1; chunk++ {
		want := int64(1) // the database fill, with the table's first chunk
		for j := chunk; j < rows; j += lxp.ChunkAt(chunk, j) {
			want++
		}
		got := fills(chunk)
		if got != want {
			t.Fatalf("chunk %d: %d fills, want %d", chunk, got, want)
		}
		if got > prev {
			t.Fatalf("chunk %d: %d fills, more than chunk %d's %d", chunk, got, chunk-1, prev)
		}
		prev = got
	}
	// Worked by hand: chunks 1, 1, 2, then 4s cover 100 rows in 27
	// fills; 10, 10, 20, 40, 40 in 5; 100 in one.
	if f1, f10, f100 := fills(1), fills(10), fills(100); f1 != 27 || f10 != 5 || f100 != 1 {
		t.Fatalf("fills for chunks 1, 10, 100 = %d %d %d, want 27 5 1", f1, f10, f100)
	}
}

// relationalTree renders db the way Section 4 says the relational
// wrapper exports it, built straight from the tables so it can serve as
// the eager oracle's source.
func relationalTree(db *relational.DB) *xmltree.Tree {
	root := xmltree.Elem(db.Name)
	for _, name := range db.TableNames() {
		tb := db.Table(name)
		el := xmltree.Elem(name)
		for i, r := range tb.Rows {
			row := xmltree.Elem(fmt.Sprintf("row%d", i))
			for c, v := range r {
				row.Children = append(row.Children, xmltree.Text(tb.Cols[c], v))
			}
			el.Children = append(el.Children, row)
		}
		root.Children = append(root.Children, el)
	}
	return root
}

// TestRelationalDottedNames: a database named my.db, a table loaded
// from homes.v2.csv, and a table t.2 next to a table t are all served
// whole, for every first-fill size, and a query over each answers what
// internal/eager answers over the tables themselves.
func TestRelationalDottedNames(t *testing.T) {
	myDB := relational.NewDB("my.db")
	homes := myDB.Create("homes", "addr", "zip")
	for i := 0; i < 7; i++ {
		homes.MustInsert(fmt.Sprintf("addr-%d", i), fmt.Sprintf("912%02d", i%3))
	}

	dir := t.TempDir()
	csvs := map[string]string{
		"homes.v2.csv": "addr,zip\na-0,91200\na-1,91201\na-2,91202\na-3,91200\na-4,91201\n",
		"schools.csv":  "dir,zip\nSmith,91200\nJones,91201\n",
	}
	for name, body := range csvs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	csvDB, err := relational.LoadCSVDir("realestate", dir)
	if err != nil {
		t.Fatal(err)
	}
	if csvDB.Table("homes.v2") == nil {
		t.Fatalf("tables %v, want homes.v2", csvDB.TableNames())
	}

	// Table t's continuations at rows 2, 4 and 8 would spell the id of
	// tables t.2, t.4 and t.8: the wrapper must read those ids as the
	// tables and never mint them for t.
	shadow := relational.NewDB("d")
	tt := shadow.Create("t", "v")
	for i := 0; i < 12; i++ {
		tt.MustInsert(fmt.Sprintf("t%d", i))
	}
	for _, name := range []string{"t.2", "t.4", "t.8"} {
		other := shadow.Create(name, "v")
		for i := 0; i < 3; i++ {
			other.MustInsert(fmt.Sprintf("%s/%d", name, i))
		}
	}

	for _, db := range []*relational.DB{myDB, csvDB, shadow} {
		want := relationalTree(db)
		plan := &algebra.Project{Input: &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "src", Var: "R"},
			Parent: "R", Path: pathexpr.MustParse("_._._"), Out: "C",
		}, Keep: []string{"C"}}
		ev := eager.New()
		ev.Register("src", nav.NewTreeDoc(want))
		wantAnswer, err := ev.Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		for chunk := 1; chunk <= 4; chunk++ {
			b, err := buffer.New(&Relational{DB: db, ChunkRows: chunk}, db.Name)
			if err != nil {
				t.Fatal(err)
			}
			e := core.New(core.DefaultOptions())
			e.Register("src", b)
			q, err := compile(e, plan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.Materialize()
			if err != nil {
				t.Fatalf("%s, chunk %d: %v", db.Name, chunk, err)
			}
			if !xmltree.Equal(got, wantAnswer) {
				t.Fatalf("%s, chunk %d: lazy answer\n%s\nwant (eager)\n%s", db.Name, chunk, got, wantAnswer)
			}
			if doc := b.Snapshot(); !xmltree.Equal(doc, want) {
				t.Fatalf("%s, chunk %d: wrapper exported\n%s\nwant\n%s", db.Name, chunk, doc, want)
			}
		}
	}
}

func TestWebWrapperPaging(t *testing.T) {
	cat := workload.Books("az", 25, 1)
	w := &Web{Name: "amazon", Catalog: cat, PageSize: 10}
	b, err := buffer.New(w, "amazon")
	if err != nil {
		t.Fatal(err)
	}
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	if w.Pages.Load() != 1 {
		t.Fatalf("root resolution should fetch one page, got %d", w.Pages.Load())
	}
	// Walk the first 10 items: still one page.
	p, _ := b.Down(root)
	for i := 0; i < 9; i++ {
		p, err = b.Right(p)
		if err != nil || p == nil {
			t.Fatalf("item %d: %v %v", i, p, err)
		}
	}
	if w.Pages.Load() != 1 {
		t.Fatalf("first page should suffice for 10 items, got %d pages", w.Pages.Load())
	}
	// Item 11 needs page 2.
	if p, err = b.Right(p); err != nil || p == nil {
		t.Fatalf("11th item: %v %v", p, err)
	}
	if w.Pages.Load() != 2 {
		t.Fatalf("pages = %d, want 2", w.Pages.Load())
	}
	got, err := nav.Materialize(b)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, cat) {
		t.Fatal("web wrapper changes the document")
	}
	if w.Pages.Load() != 3 {
		t.Fatalf("25 items / 10 per page = 3 pages, got %d", w.Pages.Load())
	}
}

func TestWebWrapperErrors(t *testing.T) {
	w := &Web{Name: "amazon", Catalog: workload.Books("az", 5, 1), PageSize: 10}
	if _, err := w.GetRoot("bn"); err == nil {
		t.Fatal("wrong uri must fail")
	}
	if _, err := w.Fill("bogus"); err == nil {
		t.Fatal("malformed hole must fail")
	}
	if _, err := w.Fill("page:99"); err == nil {
		t.Fatal("stale page must fail")
	}
}

func TestXMLWrapper(t *testing.T) {
	d := workload.FlatList(20, "a", "b")
	b, err := buffer.New(XML(d, 4, 3), "u")
	if err != nil {
		t.Fatal(err)
	}
	got, err := nav.Materialize(b)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, d) {
		t.Fatal("xml wrapper changes the document")
	}
}

func sampleOODB() *objectdb.DB {
	db := objectdb.NewDB("company")
	db.Put("e1", "Employee",
		objectdb.F("name", objectdb.S("Ada")),
		objectdb.F("boss", objectdb.R("e2")),
	)
	db.Put("e2", "Employee",
		objectdb.F("name", objectdb.S("Grace")),
		objectdb.F("boss", objectdb.R("e1")), // cycle: infinite virtual view
	)
	db.Put("d1", "Dept",
		objectdb.F("title", objectdb.S("R&D")),
		objectdb.F("members", objectdb.L(objectdb.R("e1"), objectdb.R("e2"))),
	)
	return db
}

func TestOODBWrapperShape(t *testing.T) {
	w := &OODB{DB: sampleOODB(), ChunkObjects: 1}
	id, err := w.GetRoot("company")
	if err != nil || id != "root" {
		t.Fatalf("GetRoot: %q %v", id, err)
	}
	if _, err := w.GetRoot("other"); err == nil {
		t.Fatal("wrong uri must fail")
	}
	trees, err := w.Fill("root")
	if err != nil || len(trees) != 1 {
		t.Fatalf("root fill: %v %v", trees, err)
	}
	root := trees[0]
	if root.Label != "company" || len(root.Children) != 2 {
		t.Fatalf("root = %v", root)
	}
	// The first class ships its first extent chunk, as ext:Dept:0
	// returns it; every other class is a hole.
	dept, err := w.Fill("ext:Dept:0")
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(root.Children[0], xmltree.Elem("Dept", dept...)) ||
		root.Children[1].Label != "Employee" ||
		root.Children[1].Children[0].HoleID() != "ext:Employee:0" {
		t.Fatalf("classes: %v", root)
	}

	// Extent fill: chunked with continuation hole.
	emp, err := w.Fill("ext:Employee:0")
	if err != nil {
		t.Fatal(err)
	}
	if len(emp) != 2 || !emp[1].IsHole() || emp[1].HoleID() != "ext:Employee:1" {
		t.Fatalf("extent fill: %v", emp)
	}
	e1 := emp[0]
	if e1.Label != "Employee" || e1.Find("oid").TextContent() != "e1" {
		t.Fatalf("object rendering: %v", e1)
	}
	// The reference is a hole, not an inlined object.
	boss := e1.Find("boss")
	if boss == nil || !boss.Children[0].IsHole() || boss.Children[0].HoleID() != "obj:e2" {
		t.Fatalf("reference rendering: %v", boss)
	}

	// Object fill resolves the reference.
	objs, err := w.Fill("obj:e2")
	if err != nil || len(objs) != 1 || objs[0].Find("name").TextContent() != "Grace" {
		t.Fatalf("obj fill: %v %v", objs, err)
	}

	// Errors.
	for _, bad := range []string{"ext:Employee:x", "ext:Employee:99", "ext:zzz", "obj:nope", "junk"} {
		if _, err := w.Fill(bad); err == nil {
			t.Errorf("Fill(%q): expected error", bad)
		}
	}
}

func TestOODBCyclicGraphNavigatesLazily(t *testing.T) {
	// The e1→e2→e1 cycle makes the virtual view infinite; the client
	// can still chase boss-of-boss-of-boss… as deep as it wants.
	w := &OODB{DB: sampleOODB(), ChunkObjects: 10}
	b, err := buffer.New(w, "company")
	if err != nil {
		t.Fatal(err)
	}
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	// company → Employee class → first Employee.
	classID, err := nav.Path(b, "Employee", "Employee")
	if err != nil || classID == nil {
		t.Fatalf("path to first employee: %v %v (root=%v)", classID, err, root)
	}
	names := []string{}
	cur := classID
	for i := 0; i < 7; i++ {
		// read name
		nameID, err := nav.Path(&rooted{doc: b, at: cur}, "name")
		if err != nil || nameID == nil {
			t.Fatalf("hop %d: name missing: %v", i, err)
		}
		sub, err := nav.Subtree(b, nameID)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, sub.TextContent())
		// follow boss reference
		next, err := nav.Path(&rooted{doc: b, at: cur}, "boss", "Employee")
		if err != nil || next == nil {
			t.Fatalf("hop %d: boss missing: %v", i, err)
		}
		cur = next
	}
	want := "Ada,Grace,Ada,Grace,Ada,Grace,Ada"
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("cycle walk = %q, want %q", got, want)
	}
}

// rooted re-roots a document at a given node for nav.Path convenience.
type rooted struct {
	doc nav.Document
	at  nav.ID
}

func (r *rooted) Root() (nav.ID, error)          { return r.at, nil }
func (r *rooted) Down(p nav.ID) (nav.ID, error)  { return r.doc.Down(p) }
func (r *rooted) Right(p nav.ID) (nav.ID, error) { return r.doc.Right(p) }
func (r *rooted) Fetch(p nav.ID) (string, error) { return r.doc.Fetch(p) }

func TestOODBThroughEngine(t *testing.T) {
	// XMAS-style extraction over the object view: all employee names.
	w := &OODB{DB: sampleOODB(), ChunkObjects: 1}
	b, err := buffer.New(w, "company")
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(core.DefaultOptions())
	e.Register("company", b)
	gd := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "company", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("Employee.Employee.name._"), Out: "N",
	}
	q, err := compile(e, &algebra.Project{Input: gd, Keep: []string{"N"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Children) != 2 {
		t.Fatalf("names = %v", got)
	}
}
