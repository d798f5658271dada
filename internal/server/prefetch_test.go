package server_test

// The drill walk (DESIGN.md §15): a client's first descent into a
// region the cache does not hold derives the whole region before the
// down is answered, so one window ships it. The ablation must behave
// exactly like a server that never heard of prefetch, the walk's work
// must be billed to the down that caused it, and none of it may ever
// serve stale or non-identical bytes — including under concurrent
// registry mutation (run with -race).

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mix/internal/core"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/trace"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

const pfRegions = 12

const pfQuery = `CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H`

func pfHomes() *xmltree.Tree {
	homes, _ := workload.HomesSchools(pfRegions, 1, 4, 31)
	return homes
}

// pfOracle replays script against an uncached engine and returns the
// per-step explored parts.
func pfOracle(t *testing.T, homes *xmltree.Tree, script []workload.Step) []string {
	t.Helper()
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	res, err := m.Query(pfQuery)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(script))
	err = workload.ReplayPersona(res.Document(), script, func(i int, explored string) error {
		out[i] = explored
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func pfFactory(homes *xmltree.Tree, counters *metrics.Counters) server.Factory {
	return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterSource("homesSrc", &nav.CountingDoc{Doc: nav.NewTreeDoc(homes), Counters: counters})
		return m, nil
	}
}

// pfJoinFactory registers the two sources of the join+groupBy view
// joinQuery, both counted on counters.
func pfJoinFactory(homes, schools *xmltree.Tree) func(*metrics.Counters) server.Factory {
	return func(counters *metrics.Counters) server.Factory {
		return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
			m := mediator.New(mediator.DefaultOptions())
			m.SetRegionCache(rc)
			m.RegisterSource("homesSrc", &nav.CountingDoc{Doc: nav.NewTreeDoc(homes), Counters: counters})
			m.RegisterSource("schoolsSrc", &nav.CountingDoc{Doc: nav.NewTreeDoc(schools), Counters: counters})
			return m, nil
		}
	}
}

// pfJoinSources returns sources for joinQuery whose answer has exactly
// pfRegions med_home regions (two zip codes, so every home has a
// school), plus the per-step oracle of script: its replay over the
// eager evaluation of joinQuery.
func pfJoinSources(t *testing.T, script []workload.Step) (homes, schools *xmltree.Tree, want []string) {
	t.Helper()
	homes, schools = workload.HomesSchools(pfRegions, 8, 2, 41)
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	m.RegisterTree("schoolsSrc", schools)
	tree, err := m.QueryEager(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != pfRegions {
		t.Fatalf("join answer has %d regions, want %d", len(tree.Children), pfRegions)
	}
	want = make([]string, len(script))
	err = workload.ReplayPersona(nav.NewTreeDoc(tree), script, func(i int, explored string) error {
		want[i] = explored
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return homes, schools, want
}

// pfStart boots one server over homes with counted sources.
func pfStart(t testing.TB, homes *xmltree.Tree, opts ...server.Option) (*server.Server, string, *metrics.Counters) {
	t.Helper()
	return pfStartWith(t, func(c *metrics.Counters) server.Factory { return pfFactory(homes, c) }, opts...)
}

// pfStartWith is pfStart over the sources factory registers, all
// counted on the returned counters.
func pfStartWith(t testing.TB, factory func(*metrics.Counters) server.Factory, opts ...server.Option) (*server.Server, string, *metrics.Counters) {
	t.Helper()
	src := &metrics.Counters{}
	srv, addr := serve(t, factory(src), opts...)
	return srv, addr, src
}

// pfReplay replays script through a fresh session on addr and returns
// the per-step explored parts.
func pfReplay(t *testing.T, addr string, script []workload.Step) []string {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(pfQuery); err != nil {
		t.Fatal(err)
	}
	explored := make([]string, len(script))
	err = workload.ReplayPersona(c, script, func(i int, ex string) error {
		explored[i] = ex
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return explored
}

// TestPrefetchAblationByteIdentity pins the ablation: a server with
// -prefetch=false and a server that never configured prefetch replay
// every persona with identical bytes AND identical per-source
// navigation counts, and the prefetch-on server serves the same bytes.
func TestPrefetchAblationByteIdentity(t *testing.T) {
	homes := pfHomes()
	_, onAddr, _ := pfStart(t, homes, server.WithPrefetch(true))
	_, offAddr, offSrc := pfStart(t, homes, server.WithPrefetch(false))
	// Never configured: no prefetch option.
	nevSrc := &metrics.Counters{}
	_, nevAddr := serve(t, pfFactory(homes, nevSrc))

	for _, persona := range []string{"deep-drill", "glance", "select-heavy"} {
		script := workload.PersonaScript(persona, pfRegions, 7)
		want := pfOracle(t, homes, script)
		offBefore, nevBefore := offSrc.Navigations(), nevSrc.Navigations()
		on := pfReplay(t, onAddr, script)
		off := pfReplay(t, offAddr, script)
		nev := pfReplay(t, nevAddr, script)
		for i := range want {
			if on[i] != want[i] || off[i] != want[i] || nev[i] != want[i] {
				t.Fatalf("%s step %d: explored parts differ from the oracle", persona, i)
			}
		}
		if offN, nevN := offSrc.Navigations()-offBefore, nevSrc.Navigations()-nevBefore; offN != nevN {
			t.Fatalf("%s: -prefetch=false drove %d source navs, never-configured %d; must be identical",
				persona, offN, nevN)
		}
	}
}

// TestPrefetchStressUnderBumpRegistry hammers the walk with concurrent
// sessions on three views — a one-source view, the join+groupBy view,
// and a fresh join view that half the sessions drill together — while
// registry bumps churn the epoch (run with -race). On the shared fresh
// view each region is walked by whichever session first descends into
// it, and every bump makes the view fresh again. Each session navigates
// its own query — the walk runs on the session's goroutine, so no
// core.Query is ever navigated by two — and whatever the epoch does,
// every explored part stays byte-identical to the oracle.
func TestPrefetchStressUnderBumpRegistry(t *testing.T) {
	type view struct{ query, persona string }
	oracles := map[view][]string{}
	var homes, schools *xmltree.Tree
	for _, persona := range []string{"deep-drill", "glance"} {
		script := workload.PersonaScript(persona, pfRegions, 3)
		homes, schools, oracles[view{joinQuery, persona}] = pfJoinSources(t, script)
		oracles[view{pfQuery, persona}] = pfOracle(t, homes, script)
	}
	fresh := view{pfFreshJoin(1), "deep-drill"}
	oracles[fresh] = oracles[view{joinQuery, "deep-drill"}]
	srv, addr, _ := pfStartWith(t, pfJoinFactory(homes, schools), server.WithPrefetch(true))

	stop := make(chan struct{})
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			srv.BumpRegistry()
		}
	}()

	// Two sessions per (view, persona) of the first eight run at once,
	// and the other eight all drill the fresh view.
	const sessions = 16
	const opensPerSession = 4
	var wg sync.WaitGroup
	var failed atomic.Int64
	errs := make(chan error, sessions*opensPerSession)
	for g := 0; g < sessions; g++ {
		v := view{pfQuery, "deep-drill"}
		if g%2 == 1 {
			v.persona = "glance"
		}
		if g%4 >= 2 {
			v.query = joinQuery
		}
		if g >= sessions/2 {
			v = fresh
		}
		wg.Add(1)
		go func(v view) {
			defer wg.Done()
			persona := v.persona
			script := workload.PersonaScript(persona, pfRegions, 3)
			want := oracles[v]
			for i := 0; i < opensPerSession; i++ {
				c, err := vxdp.Dial(addr)
				if err != nil {
					failed.Add(1)
					errs <- err
					return
				}
				err = func() error {
					defer c.Close()
					if err := c.Open(v.query); err != nil {
						return err
					}
					return workload.ReplayPersona(c, script, func(i int, ex string) error {
						if ex != want[i] {
							return fmt.Errorf("%s step %d served non-oracle bytes", persona, i)
						}
						return nil
					})
				}()
				if err != nil {
					failed.Add(1)
					errs <- err
					return
				}
			}
		}(v)
	}
	wg.Wait()
	close(stop)
	mutWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d session(s) failed under registry mutation", failed.Load())
	}
}

// TestPrefetchWalkSpansNest: with tracing on, a deep-drill session on a
// fresh view walks each region inside the down that first enters it,
// and every source navigation the walk makes is billed to that down:
// every root of the session's trace is a client command, and the roots,
// the slow ring and the operator histograms each count exactly the
// source navigations the sources saw.
func TestPrefetchWalkSpansNest(t *testing.T) {
	script := workload.DeepDrillScript(pfRegions, 1)
	homes, schools, want := pfJoinSources(t, script)
	srv, addr, src := pfStartWith(t, pfJoinFactory(homes, schools),
		server.WithPrefetch(true), server.WithTrace(true), server.WithSlowNav(0, 1<<14))

	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	// Take the trace after every step: the recorder keeps a bounded
	// number of roots.
	var roots []*trace.Span
	prev := c.RoundTrips()
	err = workload.ReplayPersona(c, script, func(i int, ex string) error {
		if ex != want[i] {
			return fmt.Errorf("step %d explored:\n got %s\nwant %s", i, ex, want[i])
		}
		if n := c.RoundTrips() - prev; i == 0 && n > 4 {
			return fmt.Errorf("region 0 took %d round trips: the walk did not ship it", n)
		}
		got, err := c.Trace()
		roots = append(roots, got...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	total := src.Navigations()
	if total == 0 {
		t.Fatal("the session drove no source navigations; the test measures nothing")
	}

	for _, r := range roots {
		if r.Label != trace.ClientLabel {
			t.Fatalf("session trace holds a %s root:\n%s", r.Label, trace.Format([]*trace.Span{r}))
		}
	}
	if n := trace.SourceNavigations(roots); n != total {
		t.Fatalf("session trace bills %d source navigations, the sources saw %d", n, total)
	}

	slow, err := c.Slow()
	if err != nil {
		t.Fatal(err)
	}
	ring := make([]*trace.Span, len(slow))
	for i, sn := range slow {
		if sn.Root.Label != trace.ClientLabel {
			t.Fatalf("slow ring holds a %s root", sn.Root.Label)
		}
		ring[i] = sn.Root
	}
	if n := trace.SourceNavigations(ring); n != total {
		t.Fatalf("slow ring bills %d source navigations, the sources saw %d", n, total)
	}

	var hist int64
	for label, n := range server.OpCounts(srv) {
		if strings.HasPrefix(label, trace.SourcePrefix) {
			hist += n
		}
	}
	if hist != total {
		t.Fatalf("operator histograms observed %d source navigations, the sources saw %d", hist, total)
	}
}

// pfWarm compiles the view on a fresh engine over rc — the same key the
// server's sessions will open — and hands it to explore, which fills
// the cache without any server involvement.
func pfWarm(t *testing.T, homes *xmltree.Tree, rc *regioncache.Cache, explore func(*mediator.Result) error) {
	t.Helper()
	m, err := pfFactory(homes, &metrics.Counters{})(rc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Query(pfQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := explore(res); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchSkipsCompleteView: on a view the cache already holds in
// full, the walk never runs — a prefetch-on server reads the cache
// exactly as often as a prefetch-off one — and every answer is still
// the oracle's, with no source navigation at all.
func TestPrefetchSkipsCompleteView(t *testing.T) {
	homes := pfHomes()
	hits := map[bool]int64{}
	for _, on := range []bool{true, false} {
		rc := regioncache.New(0)
		pfWarm(t, homes, rc, func(res *mediator.Result) error {
			_, err := nav.Materialize(res.Document())
			return err
		})
		_, addr, src := pfStart(t, homes, server.WithPrefetch(on), server.WithRegionCache(rc))
		before := rc.Stats().Hits
		for _, persona := range []string{"deep-drill", "glance"} {
			script := workload.PersonaScript(persona, pfRegions, 7)
			want := pfOracle(t, homes, script)
			got := pfReplay(t, addr, script)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("prefetch=%v %s step %d explored:\n got %s\nwant %s", on, persona, i, got[i], want[i])
				}
			}
		}
		if n := src.Navigations(); n != 0 {
			t.Fatalf("prefetch=%v: complete view drove %d source navigations", on, n)
		}
		hits[on] = rc.Stats().Hits - before
	}
	if hits[true] != hits[false] {
		t.Fatalf("complete view: %d cache reads with prefetch on, %d off; the walk ran", hits[true], hits[false])
	}
}

// pfFreshJoin is joinQuery with a comparison on k that always holds
// (zip codes start at 91000): every k is a fresh view, with its own
// plan fingerprint and region-cache entry, and joinQuery's answer.
func pfFreshJoin(k int) string { return joinQuery + fmt.Sprintf(` AND $V1 > "%d"`, k) }

// pfTrips opens query in a fresh session on addr and replays script,
// checking each step against want. It returns the round trips the
// client paid for each step; the first step's include the root.
func pfTrips(t *testing.T, addr, query string, script []workload.Step, want []string) []int64 {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(query); err != nil {
		t.Fatal(err)
	}
	trips := make([]int64, len(script))
	prev := c.RoundTrips()
	err = workload.ReplayPersona(c, script, func(i int, ex string) error {
		if ex != want[i] {
			return fmt.Errorf("step %d explored:\n got %s\nwant %s", i, ex, want[i])
		}
		trips[i] = c.RoundTrips() - prev
		prev += trips[i]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return trips
}

// TestPrefetchDrillShipsRegion: the first descent into a region the
// cache does not hold derives the whole region before the down is
// answered, so one window ships it — on a fresh view too.
func TestPrefetchDrillShipsRegion(t *testing.T) {
	deep := workload.DeepDrillScript(pfRegions, 1)
	homes, schools, want := pfJoinSources(t, deep)
	factory := pfJoinFactory(homes, schools)

	t.Run("fresh deep drill", func(t *testing.T) {
		_, addr, _ := pfStartWith(t, factory, server.WithPrefetch(true))
		// A new constant per session: every session meets a fresh view.
		for k := 1; k <= 3; k++ {
			trips := pfTrips(t, addr, pfFreshJoin(k), deep, want)
			// Region 0: root, down to its top and fetch, then the one
			// down that ships it. Every later region: right, fetch and
			// down at most. Without the walk a fresh view pays three
			// round trips per node of its first two regions.
			if trips[0] > 4 {
				t.Fatalf("session %d: region 0 took %d round trips, want at most 4 (before the walk: 100 of 179): %v", k, trips[0], trips)
			}
			for i, n := range trips[1:] {
				if n > 3 {
					t.Fatalf("session %d: region %d took %d round trips, want at most 3 (before the walk: 69 in region 1): %v", k, i+1, n, trips)
				}
			}
		}
	})

	t.Run("glance never walks", func(t *testing.T) {
		glance := workload.GlanceScript(pfRegions, 5)
		_, _, gwant := pfJoinSources(t, glance)
		navs := map[bool]int64{}
		for _, on := range []bool{true, false} {
			_, addr, src := pfStartWith(t, factory, server.WithPrefetch(on))
			pfTrips(t, addr, pfFreshJoin(1), glance, gwant)
			navs[on] = src.Navigations()
		}
		// A client that never descends below a region top costs the
		// sources exactly what it costs without the walk.
		if navs[true] != navs[false] {
			t.Fatalf("glance session drove %d source navs with prefetch on, %d off", navs[true], navs[false])
		}
	})

	t.Run("select landing walks", func(t *testing.T) {
		// A region top reached by select is a region top like any other:
		// the first descent from it walks the region.
		_, addr, _ := pfStartWith(t, factory, server.WithPrefetch(true))
		c, err := vxdp.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Open(pfFreshJoin(1)); err != nil {
			t.Fatal(err)
		}
		root, err := c.Root()
		if err != nil {
			t.Fatal(err)
		}
		top, err := c.Down(root)
		for i := 0; i < 2 && err == nil; i++ {
			top, err = c.Right(top)
		}
		if err != nil {
			t.Fatal(err)
		}
		if top, err = c.SelectLabel(top, "med_home", false); err != nil || top == nil {
			t.Fatalf("select from region 2 found no region 3: %v", err)
		}
		before := c.RoundTrips()
		sub, err := nav.Subtree(c, top)
		if err != nil {
			t.Fatal(err)
		}
		if got := xmltree.MarshalXML(sub); got != want[3] {
			t.Fatalf("region 3 explored:\n got %s\nwant %s", got, want[3])
		}
		if n := c.RoundTrips() - before; n > 3 {
			t.Fatalf("region 3, reached by select, took %d round trips to drill, want at most 3", n)
		}
	})

	t.Run("budget stops the walk", func(t *testing.T) {
		_, addr, _ := pfStartWith(t, factory, server.WithPrefetch(true),
			server.WithPrefetchBudget(core.PrefetchBudget{MaxNavs: 6}))
		trips := pfTrips(t, addr, pfFreshJoin(1), deep, want)
		if trips[0] <= 4 {
			t.Fatalf("region 0 took %d round trips: a 6-navigation budget shipped it whole", trips[0])
		}
	})
}

// BenchmarkSessionDeepDrill times a deep-drill session with the walk
// off and on. The first two open one query text, so only their first
// session meets a fresh view and every later one reads the cache; fresh
// gives every session a new constant, so each one meets a fresh view
// and walks every region. Each reports the client's round trips per
// session.
func BenchmarkSessionDeepDrill(b *testing.B) {
	homes := pfHomes()
	script := workload.DeepDrillScript(pfRegions, 1)
	for _, mode := range []struct {
		name  string
		opts  []server.Option
		query func(i int) string
	}{
		{"prefetch=off", []server.Option{server.WithPrefetch(false)}, func(int) string { return pfQuery }},
		{"prefetch=on", []server.Option{server.WithPrefetch(true)}, func(int) string { return pfQuery }},
		{"fresh", []server.Option{server.WithPrefetch(true)}, pfFreshHomes},
	} {
		b.Run(mode.name, func(b *testing.B) {
			_, addr, _ := pfStart(b, homes, mode.opts...)
			var trips int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := vxdp.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Open(mode.query(i)); err != nil {
					b.Fatal(err)
				}
				if err := workload.ReplayPersona(c, script, nil); err != nil {
					b.Fatal(err)
				}
				trips += c.RoundTrips()
				c.Close()
			}
			b.ReportMetric(float64(trips)/float64(b.N), "round_trips/session")
		})
	}
}

// pfFreshHomes is pfQuery with a comparison on the constant i+1 that
// always holds (zip codes start at 91000): a fresh view per i with
// pfQuery's answer.
func pfFreshHomes(i int) string {
	return fmt.Sprintf(`CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H AND $H zip._ $V AND $V > "%d"`, i+1)
}
