package server_test

// Speculative prefetch (DESIGN.md §15): the successor model must warm
// the deep-drill persona's next region before the client asks, the
// ablation must behave exactly like a server that never heard of
// prefetch, speculation must stay invisible to the demand-side engine
// pool, and none of it may ever serve stale or non-identical bytes —
// including under concurrent registry mutation (run with -race) and
// across cluster prefetch hints.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mix/internal/core"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/predict"
	"mix/internal/regioncache"
	"mix/internal/server"
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

// pfStart boots one server over homes with counted demand sources and,
// when prefetch is on, counted speculative sources.
func pfStart(t testing.TB, homes *xmltree.Tree, opts ...server.Option) (*server.Server, string, *metrics.Counters, *metrics.Counters) {
	t.Helper()
	return pfStartWith(t, func(c *metrics.Counters) server.Factory { return pfFactory(homes, c) }, opts...)
}

// pfStartWith is pfStart over the sources factory registers.
func pfStartWith(t testing.TB, factory func(*metrics.Counters) server.Factory, opts ...server.Option) (*server.Server, string, *metrics.Counters, *metrics.Counters) {
	t.Helper()
	src, specSrc := &metrics.Counters{}, &metrics.Counters{}
	srv, addr := serve(t, factory(src), append([]server.Option{server.WithSpecFactory(factory(specSrc))}, opts...)...)
	return srv, addr, src, specSrc
}

// pfQuiesce waits for every in-flight speculative drain to finish.
func pfQuiesce(t *testing.T, srv *server.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.Prefetch == nil || st.Prefetch.Inflight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("speculative drains did not quiesce")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// pfReplay replays script through a fresh session on addr, quiescing
// between steps, and returns the per-step explored parts plus the
// demand source navigations split at step `split`.
func pfReplay(t *testing.T, addr string, srv *server.Server, src *metrics.Counters,
	script []workload.Step, split int) (explored []string, early, late int64) {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(pfQuery); err != nil {
		t.Fatal(err)
	}
	pfQuiesce(t, srv)
	explored = make([]string, len(script))
	prev := src.Navigations()
	err = workload.ReplayPersona(c, script, func(i int, ex string) error {
		pfQuiesce(t, srv)
		navs := src.Navigations() - prev
		prev += navs
		if i < split {
			early += navs
		} else {
			late += navs
		}
		explored[i] = ex
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return explored, early, late
}

// TestPrefetchWarmsNextRegion is the tentpole invariant on one node:
// after two training engagements the deep-drill persona's remaining
// regions are served entirely from speculatively warmed cache — zero
// interactive source navigations, byte-identical answers — and the
// speculation neither touches the demand engine pool nor misses a
// prediction.
func TestPrefetchWarmsNextRegion(t *testing.T) {
	homes := pfHomes()
	script := workload.DeepDrillScript(pfRegions, 1)
	want := pfOracle(t, homes, script)
	srv, addr, src, specSrc := pfStart(t, homes, server.WithPrefetch(true))

	got, early, late := pfReplay(t, addr, srv, src, script, 2)
	if early == 0 {
		t.Fatal("training regions drove no source work; the test measures nothing")
	}
	if late != 0 {
		t.Fatalf("steady-state regions drove %d interactive source navs, want 0", late)
	}
	if specSrc.Navigations() == 0 {
		t.Fatal("speculative drains drove no source work")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d explored:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	st := srv.Stats()
	if st.Prefetch == nil {
		t.Fatal("prefetch-enabled server reports no prefetch stats")
	}
	if st.Prefetch.Hits < int64(pfRegions-2) || st.Prefetch.Wasted != 0 {
		t.Fatalf("prefetch stats %+v; want ≥%d hits and 0 wasted", st.Prefetch, pfRegions-2)
	}
	// Speculative engines come from the prefetcher's own pool: the
	// demand pool must look exactly like one plain session used it.
	if st.Pool == nil || st.Pool.Created != 1 || st.Pool.Reused != 0 {
		t.Fatalf("speculation leaked into the demand engine pool: %+v", st.Pool)
	}
}

// TestPrefetchAblationByteIdentity pins the ablation: a server with
// -prefetch=false and a server that never configured prefetch replay
// every persona with identical bytes AND identical per-source
// navigation counts, and the prefetch-on server serves the same bytes.
func TestPrefetchAblationByteIdentity(t *testing.T) {
	homes := pfHomes()
	onSrv, onAddr, onSrc, _ := pfStart(t, homes, server.WithPrefetch(true))
	offSrv, offAddr, offSrc, _ := pfStart(t, homes, server.WithPrefetch(false))
	// Never configured: no prefetch option, no spec factory.
	nevSrc := &metrics.Counters{}
	nevSrv, nevAddr := serve(t, pfFactory(homes, nevSrc))

	for _, persona := range []string{"deep-drill", "glance", "select-heavy"} {
		script := workload.PersonaScript(persona, pfRegions, 7)
		want := pfOracle(t, homes, script)
		offBefore, nevBefore := offSrc.Navigations(), nevSrc.Navigations()
		on, _, _ := pfReplay(t, onAddr, onSrv, onSrc, script, 0)
		off, _, _ := pfReplay(t, offAddr, offSrv, offSrc, script, 0)
		nev, _, _ := pfReplay(t, nevAddr, nevSrv, nevSrc, script, 0)
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
	if st := offSrv.Stats(); st.Prefetch != nil {
		t.Fatalf("-prefetch=false server reports prefetch stats: %+v", st.Prefetch)
	}
}

// TestPrefetchStressUnderBumpRegistry hammers speculation with
// concurrent sessions on two views — a one-source view and the
// join+groupBy view, whose drains park and resume their queries — and
// registry bumps (run with -race): whatever the epoch does, every
// explored part stays byte-identical to the oracle, speculative entries
// never resurrect a dead generation, and once every session has closed
// nothing stays parked.
func TestPrefetchStressUnderBumpRegistry(t *testing.T) {
	type view struct{ query, persona string }
	oracles := map[view][]string{}
	var homes, schools *xmltree.Tree
	for _, persona := range []string{"deep-drill", "glance"} {
		script := workload.PersonaScript(persona, pfRegions, 3)
		homes, schools, oracles[view{joinQuery, persona}] = pfJoinSources(t, script)
		oracles[view{pfQuery, persona}] = pfOracle(t, homes, script)
	}
	srv, addr, _, _ := pfStartWith(t, pfJoinFactory(homes, schools), server.WithPrefetch(true))

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

	// Two sessions per (view, persona) run at once, so drains of one
	// view key also race for its parked query.
	const sessions = 8
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
	pfWaitIdle(t, srv)
	pfQuiesce(t, srv)
	if n := len(server.SpecParked(srv)); n != 0 {
		t.Fatalf("%d queries still parked after every session closed", n)
	}
}

// pfDrain is one speculative drain a session step triggered: the region
// it warmed (deep-drill predicts the next one) and the speculative
// source navigations it paid.
type pfDrain struct {
	region int
	navs   int64
}

// pfDrive opens query in a fresh session on addr and replays script,
// quiescing after every step. It checks each step against want and
// calls step (when non-nil) after each one with the drain that step
// spawned (nil when none).
func pfDrive(t *testing.T, addr string, srv *server.Server, specSrc *metrics.Counters,
	query string, script []workload.Step, want []string, step func(i int, d *pfDrain)) *vxdp.Client {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Open(query); err != nil {
		t.Fatal(err)
	}
	issued, navs := srv.Stats().Prefetch.Issued, specSrc.Navigations()
	err = workload.ReplayPersona(c, script, func(i int, ex string) error {
		pfQuiesce(t, srv)
		if ex != want[i] {
			return fmt.Errorf("step %d explored:\n got %s\nwant %s", i, ex, want[i])
		}
		var d *pfDrain
		if n := srv.Stats().Prefetch.Issued; n != issued {
			d = &pfDrain{region: script[i].Region + 1, navs: specSrc.Navigations() - navs}
			issued = n
		}
		navs = specSrc.Navigations()
		if step != nil {
			step(i, d)
		}
		return nil
	})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	return c
}

// pfWaitIdle waits until the server has no live session, so every
// closed client's dropSession has run.
func pfWaitIdle(t *testing.T, srv *server.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().SessionsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sessions did not close")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetchResumesParkedQuery: one deep-drill session over a
// join+groupBy view. Its first drain compiles the view on a spec
// engine; every later drain resumes that same parked query — nothing is
// compiled again — and pays strictly fewer speculative source
// navigations than a fresh query draining the same region (measured by
// drains spawned on a second server with no session, which compile,
// drain and release exactly as before parking existed). Every answer
// equals the eager evaluation.
func TestPrefetchResumesParkedQuery(t *testing.T) {
	script := workload.DeepDrillScript(pfRegions, 1)
	homes, schools, want := pfJoinSources(t, script)
	factory := pfJoinFactory(homes, schools)
	srv, addr, _, specSrc := pfStartWith(t, factory, server.WithPrefetch(true))

	var drains []pfDrain
	var first *mediator.Result
	var key predict.Key
	c := pfDrive(t, addr, srv, specSrc, joinQuery, script, want, func(i int, d *pfDrain) {
		if d == nil {
			return
		}
		drains = append(drains, *d)
		parked := server.SpecParked(srv)
		if len(parked) != 1 {
			t.Fatalf("step %d: %d parked queries, want 1", i, len(parked))
		}
		for k, res := range parked {
			if first == nil {
				first, key = res, k
			} else if res != first || k != key {
				t.Fatalf("step %d: the drain compiled a new query instead of resuming the parked one", i)
			}
		}
	})
	defer c.Close()
	if len(drains) < 3 {
		t.Fatalf("only %d drains; the test needs at least 3", len(drains))
	}
	if _, created := server.SpecPool(srv); created != 1 {
		t.Fatalf("%d spec engines built, want 1", created)
	}

	fresh, _, _, freshSpec := pfStartWith(t, factory, server.WithPrefetch(true))
	for i, d := range drains {
		before := freshSpec.Navigations()
		server.SpawnDrain(fresh, key, joinQuery, d.region, true)
		pfQuiesce(t, fresh)
		if len(server.SpecParked(fresh)) != 0 {
			t.Fatal("a drain with no local session parked its query")
		}
		freshNavs := freshSpec.Navigations() - before
		t.Logf("region %d: session drain %d speculative source navs, fresh query %d", d.region, d.navs, freshNavs)
		if freshNavs == 0 {
			t.Fatalf("fresh drain of region %d paid nothing; the comparison measures nothing", d.region)
		}
		if i > 0 && d.navs >= freshNavs {
			t.Fatalf("resumed drain of region %d paid %d speculative source navs, a fresh query %d",
				d.region, d.navs, freshNavs)
		}
	}
}

// TestPrefetchParkedQueryLifetime: a parked query lives exactly as long
// as a local session has its view open. Closing the session hands the
// engine back to the spec pool; reopening the same view keeps it;
// BumpRegistry drops it, and later drains
// of the session's now-stale view park nothing; Shutdown drops it too.
func TestPrefetchParkedQueryLifetime(t *testing.T) {
	const engaged = 4
	script := workload.DeepDrillScript(pfRegions, 1)
	homes, schools, want := pfJoinSources(t, script)
	factory := pfJoinFactory(homes, schools)
	parkedNow := func(srv *server.Server) int { return len(server.SpecParked(srv)) }

	t.Run("session close", func(t *testing.T) {
		srv, addr, _, specSrc := pfStartWith(t, factory, server.WithPrefetch(true))
		c := pfDrive(t, addr, srv, specSrc, joinQuery, script[:engaged], want, nil)
		if parkedNow(srv) != 1 {
			t.Fatal("nothing parked while the session is open")
		}
		c.Close()
		pfWaitIdle(t, srv)
		if n := parkedNow(srv); n != 0 {
			t.Fatalf("%d queries still parked after the session closed", n)
		}
		if idle, created := server.SpecPool(srv); idle != int(created) || created == 0 {
			t.Fatalf("spec pool holds %d of %d engines after the session closed", idle, created)
		}
	})

	t.Run("reopen", func(t *testing.T) {
		srv, addr, _, specSrc := pfStartWith(t, factory, server.WithPrefetch(true))
		c := pfDrive(t, addr, srv, specSrc, joinQuery, script[:engaged], want, nil)
		defer c.Close()
		before := server.SpecParked(srv)
		if len(before) != 1 {
			t.Fatal("nothing parked while the session is open")
		}
		if err := c.Open(joinQuery); err != nil {
			t.Fatal(err)
		}
		after := server.SpecParked(srv)
		for k, res := range before {
			if after[k] != res {
				t.Fatal("reopening the same view dropped its parked query")
			}
		}
	})

	t.Run("BumpRegistry", func(t *testing.T) {
		srv, addr, _, specSrc := pfStartWith(t, factory, server.WithPrefetch(true))
		c := pfDrive(t, addr, srv, specSrc, joinQuery, script[:engaged], want, nil)
		defer c.Close()
		if parkedNow(srv) != 1 {
			t.Fatal("nothing parked while the session is open")
		}
		srv.BumpRegistry()
		if n := parkedNow(srv); n != 0 {
			t.Fatalf("%d queries still parked after BumpRegistry", n)
		}
		// The session keeps its pre-bump view and keeps engaging regions;
		// its predictions now name a dead generation and park nothing.
		issued := srv.Stats().Prefetch.Issued
		root, err := c.Root()
		if err != nil {
			t.Fatal(err)
		}
		cur, err := c.Down(root)
		for r := 0; r < pfRegions && err == nil; r++ {
			if r >= engaged {
				if _, err := c.Fetch(cur); err != nil {
					t.Fatal(err)
				}
				pfQuiesce(t, srv)
				if n := parkedNow(srv); n != 0 {
					t.Fatalf("region %d: a stale-view drain parked %d queries", r, n)
				}
			}
			cur, err = c.Right(cur)
		}
		if err != nil {
			t.Fatal(err)
		}
		if srv.Stats().Prefetch.Issued == issued {
			t.Fatal("the stale view spawned no drain; the check measures nothing")
		}
	})

	t.Run("Shutdown", func(t *testing.T) {
		srv, addr, _, specSrc := pfStartWith(t, factory, server.WithPrefetch(true))
		c := pfDrive(t, addr, srv, specSrc, joinQuery, script[:engaged], want, nil)
		defer c.Close()
		if parkedNow(srv) != 1 {
			t.Fatal("nothing parked while the session is open")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if n := parkedNow(srv); n != 0 {
			t.Fatalf("%d queries still parked after Shutdown", n)
		}
	})
}

// pfWarm compiles the view on a fresh engine over rc — the same key the
// server's sessions will open — and hands it to explore, which fills
// the cache without any server involvement.
func pfWarm(t *testing.T, homes *xmltree.Tree, rc *regioncache.Cache, explore func(*mediator.Result) error) regioncache.Key {
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
	return res.RegionKey()
}

// pfDeepRegions returns an explorer that drains regions [0, n) deep.
func pfDeepRegions(n int) func(*mediator.Result) error {
	return func(res *mediator.Result) error {
		for r := 0; r < n; r++ {
			if _, err := res.PrefetchRegion(context.Background(), r, true, core.PrefetchBudget{}, nil); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestPrefetchSkipsCompleteView: on a view the cache already holds in
// full, speculation spends nothing — no drain is issued for either
// persona — and every answer is still the oracle's, with no source
// navigation at all.
func TestPrefetchSkipsCompleteView(t *testing.T) {
	homes := pfHomes()
	rc := regioncache.New(0)
	pfWarm(t, homes, rc, func(res *mediator.Result) error {
		_, err := nav.Materialize(res.Document())
		return err
	})
	srv, addr, src, _ := pfStart(t, homes, server.WithPrefetch(true), server.WithRegionCache(rc))
	for _, persona := range []string{"deep-drill", "glance"} {
		script := workload.PersonaScript(persona, pfRegions, 7)
		want := pfOracle(t, homes, script)
		got, _, _ := pfReplay(t, addr, srv, src, script, 0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s step %d explored:\n got %s\nwant %s", persona, i, got[i], want[i])
			}
		}
	}
	if st := srv.Stats().Prefetch; st.Issued != 0 || st.Navs != 0 {
		t.Fatalf("complete view still speculated: %+v", st)
	}
	if n := src.Navigations(); n != 0 {
		t.Fatalf("complete view drove %d source navigations", n)
	}
}

// TestPrefetchDrainsOnlyUnknownRegions: with the first half of the view
// explored, a deep-drill session's predictions drain only the unknown
// half; and a drain spawned for each region on a server with no
// session is started exactly for the regions the cache does not already
// know.
func TestPrefetchDrainsOnlyUnknownRegions(t *testing.T) {
	const half = pfRegions / 2
	homes := pfHomes()
	script := workload.DeepDrillScript(pfRegions, 1)
	want := pfOracle(t, homes, script)

	coldSrv, coldAddr, coldSrc, _ := pfStart(t, homes, server.WithPrefetch(true))
	pfReplay(t, coldAddr, coldSrv, coldSrc, script, 0)
	cold := coldSrv.Stats().Prefetch.Issued

	rc := regioncache.New(0)
	pfWarm(t, homes, rc, pfDeepRegions(half))
	srv, addr, src, specSrc := pfStart(t, homes, server.WithPrefetch(true), server.WithRegionCache(rc))
	got, early, _ := pfReplay(t, addr, srv, src, script, half)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d explored:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if early != 0 {
		t.Fatalf("pre-explored regions drove %d source navigations", early)
	}
	st := srv.Stats().Prefetch
	// Cold, the two training regions are followed by one prediction per
	// region from region 2 on; here the ones landing in regions 2 to
	// half-1, already known, are skipped.
	if st.Issued == 0 || st.Issued != cold-int64(half-2) || specSrc.Navigations() == 0 {
		t.Fatalf("half-explored view: issued %d (cold %d), spec src navs %d; want %d",
			st.Issued, cold, specSrc.Navigations(), cold-int64(half-2))
	}

	rc2 := regioncache.New(0)
	key := pfWarm(t, homes, rc2, pfDeepRegions(half))
	hsrv, _, _, _ := pfStart(t, homes, server.WithPrefetch(true), server.WithRegionCache(rc2))
	for _, deep := range []bool{true, false} {
		for r := 0; r < pfRegions+2; r++ {
			before := hsrv.Stats().Prefetch.Issued
			server.SpawnDrain(hsrv, key, pfQuery, r, deep)
			pfQuiesce(t, hsrv)
			// Deep drains warm the unknown half (and, past the end, learn
			// the view's width once); after them every region is known.
			var want int64
			if deep && r >= half && r <= pfRegions {
				want = 1
			}
			if n := hsrv.Stats().Prefetch.Issued - before; n != want {
				t.Fatalf("deep=%v region %d: %d drains issued, want %d", deep, r, n, want)
			}
		}
	}
}

// BenchmarkSessionDeepDrill guards the demand path: with
// -prefetch=false a session costs exactly what it did before the
// prefetch subsystem existed — the navigation hooks reduce to one nil
// check — and prefetch-on adds only the tracking/prediction work.
func BenchmarkSessionDeepDrill(b *testing.B) {
	homes := pfHomes()
	script := workload.DeepDrillScript(pfRegions, 1)
	for _, mode := range []struct {
		name string
		opts []server.Option
	}{
		{"prefetch=off", []server.Option{server.WithPrefetch(false)}},
		{"prefetch=on", []server.Option{server.WithPrefetch(true)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			_, addr, _, _ := pfStart(b, homes, mode.opts...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := vxdp.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Open(pfQuery); err != nil {
					b.Fatal(err)
				}
				if err := workload.ReplayPersona(c, script, nil); err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
		})
	}
}
