package server_test

// Semantic region cache end-to-end (DESIGN.md §14, experiment E18): a
// σ-restricted query opened warm against a fully explored superset
// region must be answered with ZERO source navigations and a
// byte-identical tree — on one node, and across a proxy-mode fleet
// where the subsumed open short-circuits routing and stays local. A
// registry bump must flush the evidence (invalidation, never
// staleness), and with no superset cached the open must fall back to
// the sources.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

const semSuperQ = `CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H`

const semSubQ = `CONSTRUCT <homes> $H {$H} </homes> {}
WHERE homesSrc homes.home $H AND $H price._ $P AND $P < "500000"`

// semOracle evaluates query over homes with a fresh uncached mediator.
func semOracle(t *testing.T, homes *xmltree.Tree, query string) string {
	t.Helper()
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	res, err := m.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.MarshalXML(tree)
}

// semFactory builds catalogs whose homesSrc is doc, shared across
// every catalog.
func semFactory(doc nav.Document) server.Factory {
	return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterSource("homesSrc", doc)
		return m, nil
	}
}

func semOpen(t *testing.T, addr, query string) string {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(query); err != nil {
		t.Fatal(err)
	}
	tree, err := nav.Materialize(c)
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.MarshalXML(tree)
}

func TestSemanticServedWithoutSourceWork(t *testing.T) {
	homes, _ := workload.HomesSchools(10, 1, 3, 5)
	wantSuper := semOracle(t, homes, semSuperQ)
	wantSub := semOracle(t, homes, semSubQ)
	if wantSub == wantSuper {
		t.Fatal("test needs a price filter that actually drops homes")
	}

	counting := nav.NewCountingDoc(nav.NewTreeDoc(homes))
	srv, addr := serve(t, semFactory(counting))

	// Cold superset drain: the whole region is explored from source.
	if got := semOpen(t, addr, semSuperQ); got != wantSuper {
		t.Fatalf("superset answer:\n got %s\nwant %s", got, wantSuper)
	}
	afterSuper := counting.Counters.Navigations()
	if afterSuper == 0 {
		t.Fatal("cold superset drain touched no sources; the test measures nothing")
	}

	// Warm subsumed open: byte-identical, zero NEW source navigations.
	if got := semOpen(t, addr, semSubQ); got != wantSub {
		t.Fatalf("subsumed answer:\n got %s\nwant %s", got, wantSub)
	}
	if navs := counting.Counters.Navigations() - afterSuper; navs != 0 {
		t.Fatalf("subsumed query drove %d source navigations, want 0", navs)
	}
	st := srv.Stats()
	if st.Cache == nil || st.Cache.SemanticHits != 1 {
		t.Fatalf("Cache.SemanticHits = %+v, want exactly 1", st.Cache)
	}

	// A registry bump invalidates the evidence: the same subsumed query
	// must re-drive the sources (staleness is never an option).
	srv.BumpRegistry()
	before := counting.Counters.Navigations()
	if got := semOpen(t, addr, semSubQ); got != wantSub {
		t.Fatalf("post-bump answer:\n got %s\nwant %s", got, wantSub)
	}
	if navs := counting.Counters.Navigations() - before; navs == 0 {
		t.Fatal("post-bump subsumed query was served from invalidated evidence")
	}
}

func TestSemanticNoSupersetFallsBackToSource(t *testing.T) {
	homes, _ := workload.HomesSchools(10, 1, 3, 5)
	wantSub := semOracle(t, homes, semSubQ)
	counting := nav.NewCountingDoc(nav.NewTreeDoc(homes))
	srv, addr := serve(t, semFactory(counting))

	// A fresh node with no superset cached: the subsumed open drains
	// its sources and records one semantic miss.
	if got := semOpen(t, addr, semSubQ); got != wantSub {
		t.Fatalf("cold subsumed answer:\n got %s\nwant %s", got, wantSub)
	}
	if counting.Counters.Navigations() == 0 {
		t.Fatal("cold subsumed open touched no source with no superset cached")
	}
	if st := srv.Stats(); st.Cache == nil || st.Cache.SemanticHits != 0 || st.Cache.SemanticMisses != 1 {
		t.Fatalf("cold subsumed open: semantic hits/misses %+v, want 0/1", st.Cache)
	}
}

func TestSemanticFleetServedLocally(t *testing.T) {
	homes, _ := workload.HomesSchools(10, 1, 3, 5)
	wantSuper := semOracle(t, homes, semSuperQ)
	wantSub := semOracle(t, homes, semSubQ)
	if wantSub == wantSuper {
		t.Fatal("test needs a price filter that actually drops homes")
	}
	// ONE counting source shared by every node: its counter is the
	// fleet-wide source-navigation total.
	counting := nav.NewCountingDoc(nav.NewTreeDoc(homes))
	f := startFleet(t, 3, semFactory(counting))
	// A member that does not own the subsumed query's key: an open
	// through it enters the routed path, where the semantic
	// short-circuit lives.
	entry, _ := nonOwner(t, f, semSubQ)

	// Phase 1: drain the superset through the entry node. Routing may
	// proxy it to the super key's owner — its region fills THERE.
	if got := semOpen(t, f.Members[entry].Addr, semSuperQ); got != wantSuper {
		t.Fatalf("fleet superset answer:\n got %s\nwant %s", got, wantSuper)
	}
	afterSuper := counting.Counters.Navigations()
	if afterSuper == 0 {
		t.Fatal("fleet superset drain touched no sources")
	}

	// Phase 2: the subsumed query through the same entry node. The entry
	// is not the sub key's owner, but the semantic short-circuit must
	// keep the session local (fetching the complete superset region from
	// its owner if needed) and answer without any source work anywhere.
	if got := semOpen(t, f.Members[entry].Addr, semSubQ); got != wantSub {
		t.Fatalf("fleet subsumed answer:\n got %s\nwant %s", got, wantSub)
	}
	if navs := counting.Counters.Navigations() - afterSuper; navs != 0 {
		t.Fatalf("fleet-wide source navigations for subsumed open = %d, want 0", navs)
	}
	st := f.Members[entry].Server.Stats()
	if st.Cluster == nil || st.Cluster.SemanticLocal != 1 {
		t.Fatalf("entry Cluster.SemanticLocal = %+v, want exactly 1", st.Cluster)
	}
	if st.Cache == nil || st.Cache.SemanticHits < 1 {
		t.Fatalf("entry Cache.SemanticHits = %+v, want >= 1", st.Cache)
	}
}

// TestSemanticFleetPartialSupersetProxied: the superset's owner has
// explored only part of its region. region_get hands that partial
// region out like any other, so the check that it is unusable for a
// subsumed answer lives with the asker — this pins it there: the routed
// subsumed open records no semantic hit, never absorbs the partial
// region, is proxied to its owner, and answers exactly what the eager
// evaluator does.
func TestSemanticFleetPartialSupersetProxied(t *testing.T) {
	homes, _ := workload.HomesSchools(10, 1, 3, 5)
	oracle := mediator.New(mediator.DefaultOptions())
	oracle.RegisterTree("homesSrc", homes)
	eagerSub, err := oracle.QueryEager(semSubQ)
	if err != nil {
		t.Fatal(err)
	}
	wantSub := xmltree.MarshalXML(eagerSub)
	superRes, err := oracle.Query(semSuperQ)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", homes)
		return m, nil
	}
	f := startFleet(t, 3, factory)
	// The entry node owns neither key: the superset open is proxied to
	// its owner (where the partial region lives) but indexes the
	// superset plan here, and the subsumed open takes the routed path.
	_, superOwner := nonOwner(t, f, semSuperQ)
	_, subOwner := nonOwner(t, f, semSubQ)
	entry := -1
	for i := range f.Members {
		if i != superOwner && i != subOwner {
			entry = i
		}
	}
	if entry < 0 {
		t.Fatal("no node owns neither key")
	}

	// Phase 1: explore the superset only partly — the first home's
	// label — through the entry node, so the owner's region stays open.
	c, err := vxdp.Dial(f.Members[entry].Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Open(semSuperQ); err != nil {
		t.Fatal(err)
	}
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Down(root)
	if err != nil || first == nil {
		t.Fatalf("first home: %v, %v", first, err)
	}
	if _, err := c.Fetch(first); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Phase 2: the subsumed open through the entry node.
	st0 := f.Members[entry].Server.Stats()
	if got := semOpen(t, f.Members[entry].Addr, semSubQ); got != wantSub {
		t.Fatalf("subsumed answer:\n got %s\nwant %s", got, wantSub)
	}
	st := f.Members[entry].Server.Stats()
	if st.Cache.SemanticHits != 0 || st.Cluster.SemanticLocal != 0 {
		t.Fatalf("partial superset was used: semantic hits %d, semantic local %d",
			st.Cache.SemanticHits, st.Cluster.SemanticLocal)
	}
	if st.Cache.SemanticIncompleteSkips != 1 {
		t.Fatalf("semantic incomplete skips = %d, want 1", st.Cache.SemanticIncompleteSkips)
	}
	if st.Cluster.Proxied <= st0.Cluster.Proxied {
		t.Fatal("subsumed open was not proxied")
	}
	// The superset's owner answered the ask with its partial region (an
	// L2 hit); the entry node kept none of it.
	if hits := st.Cluster.L2Hits - st0.Cluster.L2Hits; hits != 1 {
		t.Fatalf("L2 hits during the subsumed open = %d, want 1 (the partial superset)", hits)
	}
	if e := f.Members[entry].Server.RegionCache().Peek(superRes.RegionKey()); e != nil && !e.Export().Empty() {
		t.Fatal("the partial superset region was absorbed on the entry node")
	}
}

// TestSemanticStressUnderBumpRegistry is the -race CI target: sessions
// alternate superset and subsumed opens while the registry is bumped
// and the dataset swapped mid-flight. Every answer must match SOME
// version's oracle for its own query — a blend (or a subsumed answer
// filtered from another version's superset) is a failure.
func TestSemanticStressUnderBumpRegistry(t *testing.T) {
	const versions = 3
	sets := make([]*xmltree.Tree, versions)
	expect := map[string]map[string]bool{semSuperQ: {}, semSubQ: {}}
	for v := range sets {
		homes, _ := workload.HomesSchools(8+2*v, 1, 3, int64(11*v+5))
		sets[v] = homes
		for _, q := range []string{semSuperQ, semSubQ} {
			want := semOracle(t, homes, q)
			if expect[q][want] {
				t.Fatal("test needs distinguishable datasets")
			}
			expect[q][want] = true
		}
	}

	var version atomic.Int64
	factory := func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", sets[version.Load()])
		return m, nil
	}
	srv, addr := serve(t, factory)

	stop := make(chan struct{})
	var mutations atomic.Int64
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
			}
			version.Store(i % versions)
			srv.BumpRegistry()
			mutations.Add(1)
		}
	}()

	const sessions = 8
	const opensPerSession = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions*opensPerSession)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opensPerSession; i++ {
				q := semSuperQ
				if (g+i)%2 == 1 {
					q = semSubQ
				}
				c, err := vxdp.Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				if err := c.Open(q); err != nil {
					c.Close()
					errs <- err
					return
				}
				tree, err := nav.Materialize(c)
				c.Close()
				if err != nil {
					errs <- err
					return
				}
				if got := xmltree.MarshalXML(tree); !expect[q][got] {
					errs <- &stale{got}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	mutWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if mutations.Load() == 0 {
		t.Fatal("mutator never ran; the stress proved nothing")
	}
}
