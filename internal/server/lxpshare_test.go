package server_test

// Shared LXP buffers behind server.New: the factory builds one catalog
// per source epoch, and every session of the epoch — its navigations
// and its drill walks alike — navigates the catalog's one open tree per
// LXP source. Each generation pays at most
// one get_root and each fill once, the catalog's buffer stats count
// every fill exactly once, no buffer outlives its epoch into the next,
// and answers stay identical to an uncached replay (run with -race).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mix/internal/buffer"
	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// delayedLXP answers every request after a fixed delay, so concurrent
// sessions overlap on the wire.
type delayedLXP struct {
	inner lxp.Server
	delay time.Duration
}

func (d *delayedLXP) GetRoot(uri string) (string, error) {
	time.Sleep(d.delay)
	return d.inner.GetRoot(uri)
}

func (d *delayedLXP) Fill(holeID string) ([]*xmltree.Tree, error) {
	time.Sleep(d.delay)
	return d.inner.Fill(holeID)
}

const shareZipsQuery = `CONSTRUCT <zips> $Z {$Z} </zips> {} WHERE homesSrc homes.home $H AND $H zip._ $Z`

func shareHomes(n int, seed int64) *xmltree.Tree {
	homes, _ := workload.HomesSchools(n, 0, 3, seed)
	return homes
}

func shareWrapper(homes *xmltree.Tree) *lxp.Counting {
	return lxp.NewCounting(&delayedLXP{
		inner: &lxp.TreeServer{Tree: homes, Chunk: 2, InlineLimit: 4},
		delay: 100 * time.Microsecond,
	})
}

// catalogs records every catalog a factory built, with its buffer.
type catalogs struct {
	mu   sync.Mutex
	meds []*mediator.Mediator
	bufs []*buffer.Buffer
}

// factory builds catalogs over the wrapper wrap() returns at build time.
func (cs *catalogs) factory(wrap func() lxp.Server) server.Factory {
	return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		b, err := m.RegisterLXP("homesSrc", wrap(), "homes")
		if err != nil {
			return nil, err
		}
		cs.mu.Lock()
		cs.meds = append(cs.meds, m)
		cs.bufs = append(cs.bufs, b)
		cs.mu.Unlock()
		return m, nil
	}
}

func (cs *catalogs) built() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.meds)
}

// fills sums the fills every built catalog's BufferStats reports.
func (cs *catalogs) fills() int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var n int64
	for _, m := range cs.meds {
		for _, st := range m.BufferStats() {
			n += int64(st.Fills)
		}
	}
	return n
}

// waitFills waits until the catalogs' buffer stats and the wrappers'
// own count agree: a lookahead fill still on the wire is counted by its
// buffer before it reaches the wrapper.
func (cs *catalogs) waitFills(t *testing.T, wrappers ...*lxp.Counting) {
	t.Helper()
	served := func() int64 {
		var n int64
		for _, w := range wrappers {
			n += w.Counters.Fills.Load()
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); cs.fills() != served(); {
		if time.Now().After(deadline) {
			t.Fatalf("buffer stats of %d catalogs report %d fills, the wrappers served %d",
				cs.built(), cs.fills(), served())
		}
		time.Sleep(time.Millisecond)
	}
}

func roots(w *lxp.Counting) int64 { return w.Counters.Msgs.Load() - w.Counters.Fills.Load() }

// materializeOn dials addr, opens query and materializes the answer.
func materializeOn(addr, query string) (*xmltree.Tree, error) {
	c, err := vxdp.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Open(query); err != nil {
		return nil, err
	}
	return nav.Materialize(c)
}

// eagerAnswer evaluates query over homes with the materializing baseline.
func eagerAnswer(t *testing.T, homes *xmltree.Tree, query string) *xmltree.Tree {
	t.Helper()
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	want, err := m.QueryEager(query)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// waitIdle waits until the server has no live session, so every closed
// client's dropSession has run.
func waitIdle(t *testing.T, srv *server.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().SessionsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sessions did not close")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSharedLXPBufferServerSessions(t *testing.T) {
	homes := pfHomes()
	counting := shareWrapper(homes)
	var cs catalogs
	srv, addr := serve(t, cs.factory(func() lxp.Server { return counting }), server.WithPrefetch(true))

	personas := []string{"deep-drill", "glance", "select-heavy", "deep-drill"}
	oracles := make([][]string, len(personas))
	for i, p := range personas {
		oracles[i] = pfOracle(t, homes, workload.PersonaScript(p, pfRegions, int64(i)))
	}

	// Rounds of concurrent sessions, with a registry bump between rounds:
	// each round runs in a generation of its own.
	const rounds = 3
	for round := 0; round < rounds; round++ {
		if round > 0 {
			srv.BumpRegistry()
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(personas))
		for i, p := range personas {
			wg.Add(1)
			go func(i int, p string) {
				defer wg.Done()
				c, err := vxdp.Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				if err := c.Open(pfQuery); err != nil {
					errs <- err
					return
				}
				script := workload.PersonaScript(p, pfRegions, int64(i))
				errs <- workload.ReplayPersona(c, script, func(step int, ex string) error {
					if ex != oracles[i][step] {
						return fmt.Errorf("round %d %s step %d explored:\n got %s\nwant %s", round, p, step, ex, oracles[i][step])
					}
					return nil
				})
			}(i, p)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	waitIdle(t, srv)

	cs.waitFills(t, counting)
	if n := roots(counting); n != rounds {
		t.Fatalf("%d get_root messages over %d generations, want one per generation", n, rounds)
	}
	if n := cs.built(); n != rounds {
		t.Fatalf("the factory built %d catalogs over %d generations, want one per generation", n, rounds)
	}
	if st := srv.Stats().Pool; st.Created != rounds || st.Reused != int64(rounds*(len(personas)-1)) {
		t.Fatalf("pool stats %+v, want %d catalogs each serving the rest of its round's opens", st, rounds)
	}
}

// TestSharedLXPBufferOneExploration: concurrent sessions of one server
// exploring the source through two views — one that reads only zip
// codes, one that copies every home — cost exactly the fills of a
// single full exploration on a private buffer and a single get_root,
// and the catalog's buffer stats report exactly those fills. Sharing
// comes from the catalog, so it holds with the region cache off too.
func TestSharedLXPBufferOneExploration(t *testing.T) {
	homes := shareHomes(12, 5)

	private := lxp.NewCounting(&lxp.TreeServer{Tree: homes, Chunk: 2, InlineLimit: 4})
	solo := mediator.New(mediator.DefaultOptions())
	if _, err := solo.RegisterLXP("homesSrc", private, "homes"); err != nil {
		t.Fatal(err)
	}
	res, err := solo.Query(semSuperQ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Materialize(); err != nil {
		t.Fatal(err)
	}
	oneExploration := private.Counters.Fills.Load()
	if oneExploration == 0 {
		t.Fatal("exploration issued no fills; the test measures nothing")
	}
	want := map[string]*xmltree.Tree{
		semSuperQ:      eagerAnswer(t, homes, semSuperQ),
		shareZipsQuery: eagerAnswer(t, homes, shareZipsQuery),
	}

	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			shared := shareWrapper(homes)
			var cs catalogs
			factory := cs.factory(func() lxp.Server { return shared })
			var addr string
			if cached {
				_, addr = serve(t, factory)
			} else {
				_, addr = boot(t, factory)
			}
			const sessions = 6
			var wg sync.WaitGroup
			errs := make(chan error, sessions)
			for i := 0; i < sessions; i++ {
				query := semSuperQ
				if i%2 == 0 {
					query = shareZipsQuery
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := materializeOn(addr, query)
					if err == nil && !xmltree.Equal(got, want[query]) {
						err = fmt.Errorf("%s over the shared buffer:\n got %s\nwant %s", query, got, want[query])
					}
					errs <- err
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			cs.waitFills(t, shared)
			if fills := shared.Counters.Fills.Load(); fills != oneExploration {
				t.Fatalf("%d sessions through the shared buffer issued %d fills, want %d (one exploration)", sessions, fills, oneExploration)
			}
			if n := roots(shared); n != 1 {
				t.Fatalf("shared buffer sent %d get_root messages, want 1", n)
			}
			if n := cs.built(); n != 1 {
				t.Fatalf("the factory built %d catalogs, want 1", n)
			}
		})
	}
}

// TestSharedLXPBufferInvalidate: Update swaps the source; the next
// catalog gets a fresh buffer over the changed wrapper and every open
// afterwards reads it, while a view opened before the update keeps
// navigating its own catalog's buffer and finishes on the old data —
// no buffer serves two epochs.
func TestSharedLXPBufferInvalidate(t *testing.T) {
	oldHomes, newHomes := shareHomes(6, 1), shareHomes(9, 2)
	oldWrap, newWrap := shareWrapper(oldHomes), shareWrapper(newHomes)
	var (
		mu  sync.Mutex
		cur = oldWrap
	)
	var cs catalogs
	srv, addr := serve(t, cs.factory(func() lxp.Server {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}))

	// A view opened on the old epoch, explored only as far as its root.
	before, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	if err := before.Open(semSuperQ); err != nil {
		t.Fatal(err)
	}
	root, err := before.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := before.Down(root); err != nil {
		t.Fatal(err)
	}

	srv.Update(func() {
		mu.Lock()
		cur = newWrap
		mu.Unlock()
	})
	for range 2 {
		got, err := materializeOn(addr, semSuperQ)
		if err != nil {
			t.Fatal(err)
		}
		if want := eagerAnswer(t, newHomes, semSuperQ); !xmltree.Equal(got, want) {
			t.Fatalf("open after the update:\n got %s\nwant %s", got, want)
		}
	}
	got, err := nav.Materialize(before)
	if err != nil {
		t.Fatal(err)
	}
	if want := eagerAnswer(t, oldHomes, semSuperQ); !xmltree.Equal(got, want) {
		t.Fatalf("view opened before the update:\n got %s\nwant %s", got, want)
	}

	before.Close()
	waitIdle(t, srv)
	cs.waitFills(t, oldWrap, newWrap)
	cs.mu.Lock()
	bufs := append([]*buffer.Buffer(nil), cs.bufs...)
	cs.mu.Unlock()
	if len(bufs) != 2 || bufs[0] == bufs[1] {
		t.Fatalf("%d catalogs over two epochs, want two with a buffer each", len(bufs))
	}
	if roots(oldWrap) != 1 || roots(newWrap) != 1 {
		t.Fatalf("get_root: old wrapper %d, new wrapper %d; want one each", roots(oldWrap), roots(newWrap))
	}
}

// TestSharedLXPBufferConcurrentRegistration: many sessions opening on a
// fresh server at once build exactly one catalog, hence one buffer,
// while the factory takes its time registering.
func TestSharedLXPBufferConcurrentRegistration(t *testing.T) {
	homes := shareHomes(4, 4)
	counting := shareWrapper(homes)
	var cs catalogs
	inner := cs.factory(func() lxp.Server { return counting })
	srv, addr := serve(t, func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		time.Sleep(5 * time.Millisecond)
		return inner(rc)
	})
	want := eagerAnswer(t, homes, shareZipsQuery)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := materializeOn(addr, shareZipsQuery)
			if err == nil && !xmltree.Equal(got, want) {
				err = fmt.Errorf("answer over the shared buffer:\n got %s\nwant %s", got, want)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if built := cs.built(); built != 1 {
		t.Fatalf("%d concurrent first opens built %d catalogs, want exactly 1", n, built)
	}
	if st := srv.Stats().Pool; st.Created != 1 || st.Reused != n-1 {
		t.Fatalf("pool stats %+v, want one catalog serving the other %d opens", st, n-1)
	}
	if r := roots(counting); r != 1 {
		t.Fatalf("%d get_root messages, want 1", r)
	}
}
