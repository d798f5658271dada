package wrapper

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mix/internal/algebra"
	"mix/internal/buffer"
	"mix/internal/eager"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/objectdb"
	"mix/internal/pathexpr"
	"mix/internal/relational"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// chunkedSource is one chunked wrapper serving a list of a given
// length, with what the property test needs to check it: the document
// the wrapper exports (the eager oracle's source), the depth of the
// list's parent below the root, and the path from the root to the
// list's items.
type chunkedSource struct {
	srv    lxp.Server
	uri    string
	oracle *xmltree.Tree
	depth  int
	path   string
}

// chunkedWrappers builds every chunked wrapper over a list of length
// items with first-fill size n.
var chunkedWrappers = []struct {
	name  string
	build func(n, length int) chunkedSource
}{
	{"xml", func(n, length int) chunkedSource {
		doc := xmltree.Elem("root")
		for i := 0; i < length; i++ {
			doc.Children = append(doc.Children, xmltree.Elem("item", xmltree.Leaf(fmt.Sprintf("v%d", i))))
		}
		return chunkedSource{srv: XML(doc, n, 2), uri: "u", oracle: doc, path: "_"}
	}},
	{"relational", func(n, length int) chunkedSource {
		db := relational.NewDB("db")
		tb := db.Create("t", "v")
		for i := 0; i < length; i++ {
			tb.MustInsert(fmt.Sprintf("v%d", i))
		}
		return chunkedSource{srv: &Relational{DB: db, ChunkRows: n}, uri: "db",
			oracle: relationalTree(db), depth: 1, path: "_._"}
	}},
	{"web", func(n, length int) chunkedSource {
		cat := workload.Books("az", length, int64(length))
		return chunkedSource{srv: &Web{Name: "az", Catalog: cat, PageSize: n}, uri: "az",
			oracle: cat, path: "_"}
	}},
	{"oodb", func(n, length int) chunkedSource {
		db := objectdb.NewDB("odb")
		ext := xmltree.Elem("C")
		for i := 0; i < length; i++ {
			oid, v := fmt.Sprintf("o%d", i), fmt.Sprintf("v%d", i)
			db.Put(objectdb.OID(oid), "C", objectdb.F("v", objectdb.S(v)))
			ext.Children = append(ext.Children, xmltree.Elem("C", xmltree.Text("oid", oid), xmltree.Text("v", v)))
		}
		oracle := xmltree.Elem("odb")
		if length > 0 {
			oracle.Children = append(oracle.Children, ext)
		}
		return chunkedSource{srv: &OODB{DB: db, ChunkObjects: n}, uri: "odb",
			oracle: oracle, depth: 1, path: "_._"}
	}},
}

// tally counts the fills a server has started and finished.
type tally struct {
	lxp.Server
	started, finished atomic.Int64
}

func (t *tally) Fill(id string) ([]*xmltree.Tree, error) {
	t.started.Add(1)
	defer t.finished.Add(1)
	return t.Server.Fill(id)
}

// settle waits until no fill is in flight at the server and the buffer
// has booked every fill the server saw, for a few polls in a row, so a
// scan lookahead that was started has landed. A lookahead that lands
// later only makes the bound checks weaker, never wrong.
func settle(b *buffer.Buffer, srv *tally) {
	deadline := time.Now().Add(time.Second)
	for quiet := 0; quiet < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		s, f := srv.started.Load(), srv.finished.Load()
		if s == f && int64(b.Stats().Fills) == s {
			quiet++
		} else {
			quiet = 0
		}
	}
}

// TestChunkedWrappersBoundedEagerness draws first-fill sizes n, list
// lengths and scan prefixes k for every chunked wrapper and checks
// lxp.ChunkAt's promise: a scan that has read k items has fetched at
// most max(n, min(2k, k+4n)) of them, and with the scan lookahead on at
// most one more fill of at most 4n. What was read, and everything
// fetched, is the prefix of the eager answer.
func TestChunkedWrappersBoundedEagerness(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, w := range chunkedWrappers {
		for trial := 0; trial < 150; trial++ {
			n, length := 1+r.Intn(7), 1+r.Intn(120)
			k := 1 + r.Intn(length)
			lookahead := trial%2 == 1
			src := w.build(n, length)
			label := fmt.Sprintf("%s n=%d length=%d k=%d lookahead=%v", w.name, n, length, k, lookahead)

			ev := eager.New()
			ev.Register("s", nav.NewTreeDoc(src.oracle))
			want, err := ev.Eval(&algebra.GetDescendants{
				Input:  &algebra.Source{URL: "s", Var: "R"},
				Parent: "R", Path: pathexpr.MustParse(src.path), Out: "X",
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Children) != length {
				t.Fatalf("%s: eager answer has %d items", label, len(want.Children))
			}
			item := func(i int) *xmltree.Tree { return want.Children[i].Children[1].Children[0] }

			srv := &tally{Server: src.srv}
			b, _ := buffer.New(srv, src.uri)
			if lookahead {
				b.EnableLookahead()
			}
			p, err := b.Root()
			for d := 0; err == nil && d <= src.depth; d++ {
				p, err = b.Down(p)
			}
			for i := 0; err == nil && i < k; i++ {
				if p == nil {
					t.Fatalf("%s: the list ended at item %d", label, i)
				}
				var got *xmltree.Tree
				if got, err = nav.Subtree(b, p); err == nil && !xmltree.Equal(got, item(i)) {
					t.Fatalf("%s: item %d read %s, eager %s", label, i, got, item(i))
				}
				if i < k-1 {
					p, err = b.Right(p)
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if lookahead {
				settle(b, srv)
			}

			list := b.Snapshot()
			for d := 0; d < src.depth; d++ {
				list = list.Children[0]
			}
			fetched := 0
			for _, c := range list.Children {
				if c.IsHole() {
					continue
				}
				if !xmltree.Equal(c, item(fetched)) {
					t.Fatalf("%s: fetched item %d is %s, eager %s", label, fetched, c, item(fetched))
				}
				fetched++
			}
			bound := max(n, min(2*k, k+4*n))
			if lookahead {
				bound += 4 * n
			}
			if fetched > bound {
				t.Fatalf("%s: fetched %d items, bound %d", label, fetched, bound)
			}
		}
	}
}

// TestWebAliasesCatalog: Web returns the catalog's own items instead of
// copies, so a full exploration through a buffer, in process and over
// TCP, must leave the catalog byte-identical.
func TestWebAliasesCatalog(t *testing.T) {
	cat := workload.Books("az", 90, 3)
	before := xmltree.MarshalXML(cat.Clone())
	web := &Web{Name: "az", Catalog: cat, PageSize: 4}

	local, _ := buffer.New(web, "az")
	got, err := nav.Materialize(local)
	if err != nil {
		t.Fatal(err)
	}
	if xmltree.MarshalXML(got) != before || xmltree.MarshalXML(cat) != before {
		t.Fatal("in-process exploration changed the document or the catalog")
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := lxp.NewTCPServer(web)
	done := make(chan error, 1)
	go func() { done <- ts.Serve(l) }()
	c, err := lxp.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := buffer.New(c, "az")
	got, err = nav.Materialize(remote)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if xmltree.MarshalXML(got) != before || xmltree.MarshalXML(cat) != before {
		t.Fatal("exploration over TCP changed the document or the catalog")
	}
}
