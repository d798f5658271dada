package server

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"weak"

	"mix/internal/eager"
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/xmltree"
)

// epochQ is a query shape: each open binds a fresh literal.
const epochQ = `CONSTRUCT <picks> $H {$H} </picks> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "%d"`

// epochHomes returns six homes whose zips start at base.
func epochHomes(base int) *xmltree.Tree {
	var homes []*xmltree.Tree
	for i := range 6 {
		homes = append(homes, xmltree.Elem("home",
			xmltree.Text("zip", strconv.Itoa(base+i)), xmltree.Text("price", strconv.Itoa(1000*i))))
	}
	return xmltree.Elem("homes", homes...)
}

// epochServer returns an unstarted server whose catalogs register
// homesSrc as data holds it when the epoch begins, and define view v
// as view holds it then (no view while view holds nil).
func epochServer(t *testing.T, data *atomic.Pointer[xmltree.Tree], view *atomic.Pointer[string]) *Server {
	t.Helper()
	srv, err := New(func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", data.Load())
		if v := view.Load(); v != nil {
			if err := m.DefineView("v", *v); err != nil {
				return nil, err
			}
		}
		return m, nil
	}, WithRegionCache(regioncache.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// epochOpen compiles text on the server's current catalog.
func epochOpen(t *testing.T, srv *Server, text string) *mediator.Result {
	t.Helper()
	cat, err := srv.catalogNow()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cat.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// eagerAnswer evaluates text over doc with internal/eager.
func eagerAnswer(t *testing.T, doc *xmltree.Tree, text string) string {
	t.Helper()
	plan, err := mediator.New(mediator.DefaultOptions()).Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	ev := eager.New()
	ev.Register("homesSrc", nav.NewTreeDoc(doc))
	tree, err := ev.Eval(plan)
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.MarshalXML(tree)
}

// epochOpenAllocs bounds the allocations of a source epoch's first
// open of a query shape an earlier epoch has seen, Update and the
// factory's catalog included: the open binds its literal into the
// template the earlier epoch prepared, about 62 allocations in all.
// Preprocessing the text afresh, as an epoch that starts from empty
// memos does, costs about 120.
const epochOpenAllocs = 90

// TestEpochCarriesCompileState: across Update with changed data, the
// first open of a query shape seen in the previous epoch binds the
// previous epoch's template instead of preprocessing its text, and
// answers as internal/eager does on the new data.
func TestEpochCarriesCompileState(t *testing.T) {
	docs := []*xmltree.Tree{epochHomes(9100), epochHomes(9200)}
	var data atomic.Pointer[xmltree.Tree]
	data.Store(docs[0])
	srv := epochServer(t, &data, new(atomic.Pointer[string]))
	// Two sightings keep the shape's template.
	epochOpen(t, srv, fmt.Sprintf(epochQ, 1))
	epochOpen(t, srv, fmt.Sprintf(epochQ, 2))
	lit := 9000
	allocs := testing.AllocsPerRun(20, func() {
		lit++
		srv.Update(func() { data.Store(docs[lit%2]) })
		epochOpen(t, srv, fmt.Sprintf(epochQ, lit))
	})
	if allocs > epochOpenAllocs {
		t.Fatalf("a new epoch's open of a known shape allocates %.0f times, bound %d", allocs, epochOpenAllocs)
	}
	srv.Update(func() { data.Store(docs[1]) })
	text := fmt.Sprintf(epochQ, 9202)
	tree, err := epochOpen(t, srv, text).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := xmltree.MarshalXML(tree), eagerAnswer(t, docs[1], text); got != want {
		t.Fatalf("answer on the new data:\n%s\nwant\n%s", got, want)
	}
}

// TestEpochViewChangeCarriesNothing: a factory whose view definition
// differs between epochs builds a catalog that adopts none of the
// retired one's memos, and the answer follows the new view.
func TestEpochViewChangeCarriesNothing(t *testing.T) {
	doc := epochHomes(9100)
	var data atomic.Pointer[xmltree.Tree]
	data.Store(doc)
	body := func(zip int) *string {
		s := fmt.Sprintf(`CONSTRUCT <vs> $H {$H} </vs> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "%d"`, zip)
		return &s
	}
	var view atomic.Pointer[string]
	view.Store(body(9101))
	srv := epochServer(t, &data, &view)
	const q = `CONSTRUCT <out> $X {$X} </out> {} WHERE v vs._ $X`
	answer := func() string {
		tree, err := epochOpen(t, srv, q).Materialize()
		if err != nil {
			t.Fatal(err)
		}
		return xmltree.MarshalXML(tree)
	}
	before := answer()
	answer() // a memo hit
	retired := srv.catalog.Load().Memos()
	srv.Update(func() { view.Store(body(9103)) })
	after := answer()
	if srv.catalog.Load().Memos() == retired {
		t.Fatal("a catalog with another view definition adopted the retired memos")
	}
	if after == before {
		t.Fatalf("the answer did not follow the new view: %s", after)
	}
	if want := eagerAnswer(t, doc, fmt.Sprintf(`CONSTRUCT <out> $H {$H} </out> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "%d"`, 9103)); after != want {
		t.Fatalf("answer after the view changed:\n%s\nwant\n%s", after, want)
	}
}

// TestRetiredCatalogCollectable: the server keeps a retired catalog's
// memos, not the catalog, so once the next epoch's first open has
// adopted them nothing holds the retired catalog and its sources.
func TestRetiredCatalogCollectable(t *testing.T) {
	var data atomic.Pointer[xmltree.Tree]
	data.Store(epochHomes(9100))
	srv := epochServer(t, &data, new(atomic.Pointer[string]))
	retired := func() weak.Pointer[mediator.Mediator] {
		res := epochOpen(t, srv, fmt.Sprintf(epochQ, 1))
		if _, err := res.Materialize(); err != nil {
			t.Fatal(err)
		}
		return weak.Make(srv.catalog.Load())
	}()
	memos := srv.catalog.Load().Memos()
	srv.Update(func() { data.Store(epochHomes(9200)) })
	epochOpen(t, srv, fmt.Sprintf(epochQ, 2))
	if srv.catalog.Load().Memos() != memos {
		t.Fatal("the next catalog did not adopt the retired memos")
	}
	runtime.GC()
	runtime.GC()
	if retired.Value() != nil {
		t.Fatal("the retired catalog is still reachable")
	}
}
