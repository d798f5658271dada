package server_test

// Speculative prefetch (DESIGN.md §15): the successor model must warm
// the deep-drill persona's next region before the client asks, the
// ablation must behave exactly like a server that never heard of
// prefetch, drains must run on the session's own query and never
// outlive its view, and none of it may ever serve stale or
// non-identical bytes — including under concurrent registry mutation
// (run with -race).

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
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

// pfStartWith is pfStart over the sources factory registers. Demand and
// speculation navigate one query per session, so src counts both;
// pfSpecNavs is the drains' share.
func pfStartWith(t testing.TB, factory func(*metrics.Counters) server.Factory, opts ...server.Option) (*server.Server, string, *metrics.Counters) {
	t.Helper()
	src := &metrics.Counters{}
	srv, addr := serve(t, factory(src), opts...)
	return srv, addr, src
}

// pfSpecNavs returns the source navigations srv's drains made (0 with
// prefetch off).
func pfSpecNavs(srv *server.Server) int64 {
	if st := srv.Stats().Prefetch; st != nil {
		return st.SrcNavs
	}
	return 0
}

// pfDemandNavs returns the source navigations demand paid: the sources'
// total minus the drains' share.
func pfDemandNavs(srv *server.Server, src *metrics.Counters) int64 {
	return src.Navigations() - pfSpecNavs(srv)
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
	prev := pfDemandNavs(srv, src)
	err = workload.ReplayPersona(c, script, func(i int, ex string) error {
		pfQuiesce(t, srv)
		navs := pfDemandNavs(srv, src) - prev
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
// speculation neither builds an engine nor misses a prediction.
func TestPrefetchWarmsNextRegion(t *testing.T) {
	homes := pfHomes()
	script := workload.DeepDrillScript(pfRegions, 1)
	want := pfOracle(t, homes, script)
	srv, addr, src := pfStart(t, homes, server.WithPrefetch(true))

	got, early, late := pfReplay(t, addr, srv, src, script, 2)
	if early == 0 {
		t.Fatal("training regions drove no source work; the test measures nothing")
	}
	if late != 0 {
		t.Fatalf("steady-state regions drove %d interactive source navs, want 0", late)
	}
	if pfSpecNavs(srv) == 0 {
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
	// The drains' share of the sources is on /metrics too.
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if want := fmt.Sprintf("mix_prefetch_src_navs_total %d\n", st.Prefetch.SrcNavs); !strings.Contains(w.Body.String(), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
	// Drains run on the session's query: the catalogs must look exactly
	// like one plain session opened once — one built, none served again.
	if st.Pool == nil || st.Pool.Created != 1 || st.Pool.Reused != 0 {
		t.Fatalf("speculation opened on the catalog: %+v", st.Pool)
	}
}

// TestPrefetchAblationByteIdentity pins the ablation: a server with
// -prefetch=false and a server that never configured prefetch replay
// every persona with identical bytes AND identical per-source
// navigation counts, and the prefetch-on server serves the same bytes.
func TestPrefetchAblationByteIdentity(t *testing.T) {
	homes := pfHomes()
	onSrv, onAddr, onSrc := pfStart(t, homes, server.WithPrefetch(true))
	offSrv, offAddr, offSrc := pfStart(t, homes, server.WithPrefetch(false))
	// Never configured: no prefetch option.
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
// join+groupBy view, whose drains share their sessions' queries — and
// registry bumps (run with -race): whatever the epoch does, every
// explored part stays byte-identical to the oracle, speculative entries
// never resurrect a dead generation, and once every session has closed
// no drain is left running.
func TestPrefetchStressUnderBumpRegistry(t *testing.T) {
	type view struct{ query, persona string }
	oracles := map[view][]string{}
	var homes, schools *xmltree.Tree
	for _, persona := range []string{"deep-drill", "glance"} {
		script := workload.PersonaScript(persona, pfRegions, 3)
		homes, schools, oracles[view{joinQuery, persona}] = pfJoinSources(t, script)
		oracles[view{pfQuery, persona}] = pfOracle(t, homes, script)
	}
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

	// Two sessions per (view, persona) run at once, so their drains
	// also race for one view key.
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
	pfNoDrains(t)
}

// pfNoDrains is the goroutine-leak check: no drain goroutine is left
// (each session waits for its drain when it leaves its view, so the
// last ones are only returning).
func pfNoDrains(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		if !strings.Contains(string(buf), "(*prefetcher).drain") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain goroutines leaked:\n%s", buf)
		}
		time.Sleep(time.Millisecond)
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
func pfDrive(t *testing.T, addr string, srv *server.Server,
	query string, script []workload.Step, want []string, step func(i int, d *pfDrain)) *vxdp.Client {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Open(query); err != nil {
		t.Fatal(err)
	}
	issued, navs := srv.Stats().Prefetch.Issued, pfSpecNavs(srv)
	err = workload.ReplayPersona(c, script, func(i int, ex string) error {
		pfQuiesce(t, srv)
		if ex != want[i] {
			return fmt.Errorf("step %d explored:\n got %s\nwant %s", i, ex, want[i])
		}
		var d *pfDrain
		if n := srv.Stats().Prefetch.Issued; n != issued {
			d = &pfDrain{region: script[i].Region + 1, navs: pfSpecNavs(srv) - navs}
			issued = n
		}
		navs = pfSpecNavs(srv)
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

// TestPrefetchDrainsOnSessionQuery: one deep-drill session over a
// join+groupBy view. Every drain runs on the session's own query — no
// engine but the session's is ever built — and pays strictly fewer
// speculative source navigations than a fresh query draining the same
// region through core.PrefetchRegion: the prefix the session and the
// earlier drains derived stays derived. Every answer equals the eager
// evaluation.
func TestPrefetchDrainsOnSessionQuery(t *testing.T) {
	script := workload.DeepDrillScript(pfRegions, 1)
	homes, schools, want := pfJoinSources(t, script)
	factory := pfJoinFactory(homes, schools)
	srv, addr, _ := pfStartWith(t, factory, server.WithPrefetch(true))

	var drains []pfDrain
	c := pfDrive(t, addr, srv, joinQuery, script, want, func(i int, d *pfDrain) {
		if d == nil {
			return
		}
		drains = append(drains, *d)
		view, drained, ok := server.SessionDrain(srv)
		if !ok || view == nil || drained != view {
			t.Fatalf("step %d: the drain ran on query %p, the session navigates %p", i, drained, view)
		}
	})
	defer c.Close()
	if len(drains) < 3 {
		t.Fatalf("only %d drains; the test needs at least 3", len(drains))
	}
	if st := srv.Stats().Pool; st.Created != 1 {
		t.Fatalf("%d catalogs built, want the session's one", st.Created)
	}

	budget := core.PrefetchBudget{MaxNavs: server.DefaultPrefetchNavs, MaxBytes: server.DefaultPrefetchBytes}
	for _, d := range drains {
		src := &metrics.Counters{}
		m, err := factory(src)(regioncache.New(0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Query(joinQuery)
		if err != nil {
			t.Fatal(err)
		}
		r, err := res.PrefetchRegion(context.Background(), d.region, true, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Alone on its query, a drain's share is everything the sources saw.
		if r.SrcNavs != src.Navigations() {
			t.Fatalf("fresh drain of region %d reports %d source navs, its sources saw %d", d.region, r.SrcNavs, src.Navigations())
		}
		t.Logf("region %d: session drain %d speculative source navs, fresh query %d", d.region, d.navs, r.SrcNavs)
		if r.SrcNavs == 0 {
			t.Fatalf("fresh drain of region %d paid nothing; the comparison measures nothing", d.region)
		}
		if d.navs >= r.SrcNavs {
			t.Fatalf("session drain of region %d paid %d speculative source navs, a fresh query %d",
				d.region, d.navs, r.SrcNavs)
		}
	}
}

// TestPrefetchDrainsStayOutOfTraces: with tracing on, a deep-drill
// session whose drains navigate its own query gets back only the spans
// of its own commands — every root a client command, and exactly the
// source navigations demand paid under them — and neither the slow
// ring nor the operator histograms see any speculative work.
func TestPrefetchDrainsStayOutOfTraces(t *testing.T) {
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
	err = workload.ReplayPersona(c, script, func(i int, ex string) error {
		pfQuiesce(t, srv)
		if ex != want[i] {
			return fmt.Errorf("step %d explored:\n got %s\nwant %s", i, ex, want[i])
		}
		got, err := c.Trace()
		roots = append(roots, got...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := pfSpecNavs(srv)
	demand := src.Navigations() - spec
	if spec == 0 || demand == 0 {
		t.Fatalf("demand %d and speculative %d source navs; the test needs both", demand, spec)
	}

	for _, r := range roots {
		if r.Label != trace.ClientLabel {
			t.Fatalf("session trace holds a %s root:\n%s", r.Label, trace.Format([]*trace.Span{r}))
		}
	}
	if n := trace.SourceNavigations(roots); n != demand {
		t.Fatalf("session trace bills %d source navigations, demand paid %d (drains %d)", n, demand, spec)
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
	if n := trace.SourceNavigations(ring); n != demand {
		t.Fatalf("slow ring bills %d source navigations, demand paid %d", n, demand)
	}

	var hist int64
	for label, n := range server.OpCounts(srv) {
		if strings.HasPrefix(label, trace.SourcePrefix) {
			hist += n
		}
	}
	if hist != demand {
		t.Fatalf("operator histograms observed %d source navigations, demand paid %d", hist, demand)
	}
}

// pfGate blocks every navigation of the sources it wraps while shut, so
// a test can hold a drain inside one source navigation.
type pfGate struct {
	mu      sync.Mutex
	shut    chan struct{} // non-nil while shut
	blocked atomic.Int64  // navigations that waited at the gate
}

func (g *pfGate) pass() {
	g.mu.Lock()
	ch := g.shut
	g.mu.Unlock()
	if ch != nil {
		g.blocked.Add(1)
		<-ch
	}
}

func (g *pfGate) close() {
	g.mu.Lock()
	g.shut = make(chan struct{})
	g.mu.Unlock()
}

func (g *pfGate) open() {
	g.mu.Lock()
	if g.shut != nil {
		close(g.shut)
		g.shut = nil
	}
	g.mu.Unlock()
}

// gatedDoc is a source behind a pfGate.
type gatedDoc struct {
	nav.Document
	g *pfGate
}

func (d gatedDoc) Root() (nav.ID, error)          { d.g.pass(); return d.Document.Root() }
func (d gatedDoc) Down(p nav.ID) (nav.ID, error)  { d.g.pass(); return d.Document.Down(p) }
func (d gatedDoc) Right(p nav.ID) (nav.ID, error) { d.g.pass(); return d.Document.Right(p) }
func (d gatedDoc) Fetch(p nav.ID) (string, error) { d.g.pass(); return d.Document.Fetch(p) }

// TestPrefetchDrainLifetime: a drain lives no longer than its session's
// view. Each way of leaving the view — close, reopen, and Shutdown —
// cancels the drain and waits for it before the session ends or moves
// on, even while the drain is held inside a source navigation;
// BumpRegistry cancels it without waiting, and the next open builds a
// fresh catalog. No drain goroutine outlives any of them.
func TestPrefetchDrainLifetime(t *testing.T) {
	const engaged = 3
	script := workload.DeepDrillScript(pfRegions, 1)
	homes, schools, want := pfJoinSources(t, script)

	// hold boots a server over the gated join view, drives a deep-drill
	// session through its first regions (the last drain warms region
	// engaged), shuts the gate and engages region engaged from the
	// cache, so the drain of the region after it blocks inside a source
	// navigation.
	hold := func(t *testing.T) (*server.Server, *vxdp.Client, *pfGate) {
		g := &pfGate{}
		srv, addr := serve(t, func(rc *regioncache.Cache) (*mediator.Mediator, error) {
			m := mediator.New(mediator.DefaultOptions())
			m.SetRegionCache(rc)
			m.RegisterSource("homesSrc", gatedDoc{nav.NewTreeDoc(homes), g})
			m.RegisterSource("schoolsSrc", gatedDoc{nav.NewTreeDoc(schools), g})
			return m, nil
		}, server.WithPrefetch(true))
		t.Cleanup(g.open)
		c := pfDrive(t, addr, srv, joinQuery, script[:engaged], want, nil)
		t.Cleanup(func() { c.Close() })
		g.close()
		issued := srv.Stats().Prefetch.Issued
		pfWithin(t, "engaging a warm region", func() {
			if err := workload.ReplayPersona(c, script[engaged:engaged+1], nil); err != nil {
				t.Error(err)
			}
		})
		deadline := time.Now().Add(10 * time.Second)
		for g.blocked.Load() == 0 || srv.Stats().Prefetch.Issued == issued {
			if time.Now().After(deadline) {
				t.Fatal("no drain blocked at the gate; the test measures nothing")
			}
			time.Sleep(time.Millisecond)
		}
		return srv, c, g
	}
	// held asserts that done stays open while the gate holds the drain.
	held := func(t *testing.T, what string, done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
			t.Fatalf("%s finished while its drain was still running", what)
		case <-time.After(20 * time.Millisecond):
		}
	}
	cancelled := func(srv *server.Server) int64 { return srv.Stats().Prefetch.Cancelled }

	t.Run("session close", func(t *testing.T) {
		srv, c, g := hold(t)
		c.Close()
		time.Sleep(20 * time.Millisecond)
		if st := srv.Stats(); st.SessionsActive != 1 {
			t.Fatal("the session ended while its drain was still running")
		}
		g.open()
		pfWaitIdle(t, srv)
		if st := srv.Stats(); st.Prefetch.Inflight != 0 || st.Prefetch.Cancelled == 0 {
			t.Fatalf("session ended with prefetch stats %+v; want the drain cancelled and done", st.Prefetch)
		}
		pfNoDrains(t)
	})

	t.Run("reopen", func(t *testing.T) {
		srv, c, g := hold(t)
		before := cancelled(srv)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := c.Open(joinQuery); err != nil {
				t.Error(err)
			}
		}()
		held(t, "the reopen", done)
		g.open()
		<-done
		if st := srv.Stats(); st.Prefetch.Inflight != 0 || st.Prefetch.Cancelled == before {
			t.Fatalf("reopen answered with prefetch stats %+v; want the drain cancelled and done", st.Prefetch)
		}
		if _, err := nav.Materialize(c); err != nil {
			t.Fatal(err)
		}
		c.Close()
		pfWaitIdle(t, srv)
		pfNoDrains(t)
	})

	t.Run("BumpRegistry", func(t *testing.T) {
		srv, c, g := hold(t)
		before := cancelled(srv)
		pfWithin(t, "BumpRegistry", srv.BumpRegistry)
		g.open()
		pfQuiesce(t, srv)
		if cancelled(srv) == before {
			t.Fatal("BumpRegistry did not cancel the running drain")
		}
		// The old epoch's catalog serves no further open, not even the
		// live session's: its reopen builds the next one.
		built := srv.Stats().Pool.Created
		if err := c.Open(joinQuery); err != nil {
			t.Fatal(err)
		}
		if got := srv.Stats().Pool.Created; got != built+1 {
			t.Fatalf("the reopen after BumpRegistry built %d catalogs, want 1", got-built)
		}
		c.Close()
		pfWaitIdle(t, srv)
		pfNoDrains(t)
	})

	t.Run("Shutdown", func(t *testing.T) {
		srv, _, g := hold(t)
		done := make(chan struct{})
		go func() {
			defer close(done)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Error(err)
			}
		}()
		held(t, "Shutdown", done)
		g.open()
		<-done
		if st := srv.Stats(); st.Prefetch.Inflight != 0 || st.Prefetch.Cancelled == 0 {
			t.Fatalf("Shutdown returned with prefetch stats %+v; want the drain cancelled and done", st.Prefetch)
		}
		pfNoDrains(t)
	})
}

// pfWithin runs f and fails the test if it does not return promptly.
func pfWithin(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked", what)
	}
}

// pfWarm compiles the view on a fresh engine over rc — the same key the
// server's sessions will open — and hands it to explore, which fills
// the cache without any server involvement. It returns the query.
func pfWarm(t *testing.T, homes *xmltree.Tree, rc *regioncache.Cache, explore func(*mediator.Result) error) *mediator.Result {
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
	return res
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
	srv, addr, src := pfStart(t, homes, server.WithPrefetch(true), server.WithRegionCache(rc))
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

	coldSrv, coldAddr, coldSrc := pfStart(t, homes, server.WithPrefetch(true))
	pfReplay(t, coldAddr, coldSrv, coldSrc, script, 0)
	cold := coldSrv.Stats().Prefetch.Issued

	rc := regioncache.New(0)
	pfWarm(t, homes, rc, pfDeepRegions(half))
	srv, addr, src := pfStart(t, homes, server.WithPrefetch(true), server.WithRegionCache(rc))
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
	if st.Issued == 0 || st.Issued != cold-int64(half-2) || st.SrcNavs == 0 {
		t.Fatalf("half-explored view: issued %d (cold %d), spec src navs %d; want %d",
			st.Issued, cold, st.SrcNavs, cold-int64(half-2))
	}

	rc2 := regioncache.New(0)
	res := pfWarm(t, homes, rc2, pfDeepRegions(half))
	hsrv, _, _ := pfStart(t, homes, server.WithPrefetch(true), server.WithRegionCache(rc2))
	for _, deep := range []bool{true, false} {
		for r := 0; r < pfRegions+2; r++ {
			before := hsrv.Stats().Prefetch.Issued
			server.SpawnDrain(hsrv, res, r, deep)
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

// pfFreshJoin is joinQuery with a comparison on k that always holds
// (zip codes start at 91000): every k is a fresh view, with its own
// plan fingerprint and successor table, and joinQuery's answer.
func pfFreshJoin(k int) string { return joinQuery + fmt.Sprintf(` AND $V1 > "%d"`, k) }

// pfTrips opens query in a fresh session on addr and replays script,
// quiescing after every step and checking it against want. It returns
// the round trips the client paid for each step; the first step's
// include the root.
func pfTrips(t *testing.T, addr string, srv *server.Server, query string, script []workload.Step, want []string) []int64 {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(query); err != nil {
		t.Fatal(err)
	}
	pfQuiesce(t, srv)
	trips := make([]int64, len(script))
	prev := c.RoundTrips()
	err = workload.ReplayPersona(c, script, func(i int, ex string) error {
		pfQuiesce(t, srv)
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
// answered, so one window ships it — on a fresh view too, where the
// successor model has nothing to predict from yet.
func TestPrefetchDrillShipsRegion(t *testing.T) {
	deep := workload.DeepDrillScript(pfRegions, 1)
	homes, schools, want := pfJoinSources(t, deep)
	factory := pfJoinFactory(homes, schools)

	t.Run("fresh deep drill", func(t *testing.T) {
		srv, addr, _ := pfStartWith(t, factory, server.WithPrefetch(true))
		// A new constant per session: every session meets an untrained view.
		for k := 1; k <= 3; k++ {
			trips := pfTrips(t, addr, srv, pfFreshJoin(k), deep, want)
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
		srv, addr, src := pfStartWith(t, factory, server.WithPrefetch(true))
		pfTrips(t, addr, srv, pfFreshJoin(1), glance, gwant)
		// Pinned before the walk existed: a client that never descends
		// below a region top costs the sources exactly what it did.
		if n, spec := src.Navigations(), pfSpecNavs(srv); n != 686 || spec != 423 {
			t.Fatalf("glance session drove %d source navs (%d speculative), want 686 (423)", n, spec)
		}
	})

	t.Run("shallow key does not walk", func(t *testing.T) {
		glance := workload.GlanceScript(pfRegions, 5)
		_, _, gwant := pfJoinSources(t, glance)
		srv, addr, _ := pfStartWith(t, factory, server.WithPrefetch(true))
		// Two glance sessions give the key's table MinSupport
		// observations and no drill.
		for range 2 {
			pfTrips(t, addr, srv, joinQuery, glance, gwant)
		}
		trips := pfTrips(t, addr, srv, joinQuery, deep, want)
		if trips[0] <= 4 {
			t.Fatalf("region 0 took %d round trips: a view whose clients never drilled walked it", trips[0])
		}
	})

	t.Run("budget stops the walk", func(t *testing.T) {
		srv, addr, _ := pfStartWith(t, factory, server.WithPrefetch(true),
			server.WithPrefetchBudget(core.PrefetchBudget{MaxNavs: 6}))
		trips := pfTrips(t, addr, srv, pfFreshJoin(1), deep, want)
		if trips[0] <= 4 {
			t.Fatalf("region 0 took %d round trips: a 6-navigation budget shipped it whole", trips[0])
		}
	})
}

// TestDrillBitFirstEngagement: a drill that is a fresh key's first
// event counts. The session descends below region 0's top before
// engaging anything, then glances at region 1's top: one drill in two
// engagements is deep, so the prediction of region 2 drains it whole.
func TestDrillBitFirstEngagement(t *testing.T) {
	homes := pfHomes()
	rc := regioncache.New(0)
	key := pfWarm(t, homes, rc, func(*mediator.Result) error { return nil }).RegionKey()
	srv, addr, _ := pfStart(t, homes, server.WithPrefetch(true), server.WithRegionCache(rc))

	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(pfQuery); err != nil {
		t.Fatal(err)
	}
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	top0, err := c.Down(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Down(top0); err != nil {
		t.Fatal(err)
	}
	top1, err := c.Right(top0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(top1); err != nil {
		t.Fatal(err)
	}
	pfQuiesce(t, srv)
	if st := srv.Stats().Prefetch; st.Issued != 1 {
		t.Fatalf("%d drains issued, want the one predicting region 2", st.Issued)
	}
	if e := rc.Peek(key); e == nil || !e.RegionKnown(2, true) {
		t.Fatal("region 2 was drained shallow: the first engagement's drill was lost")
	}
}

// BenchmarkSessionDeepDrill guards the demand path: with
// -prefetch=false a session costs exactly what it did before the
// prefetch subsystem existed — the navigation hooks reduce to one nil
// check — and prefetch-on adds only the tracking/prediction work. The
// first two open one query text, so only their first session meets an
// untrained view; fresh gives every session a new constant, so each
// one meets an untrained view and walks its first regions. Each
// reports the client's round trips per session.
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
