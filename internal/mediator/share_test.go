package mediator_test

// Shared LXP buffers: with a region cache installed, every mediator of
// the cache that registers the same LXP source in one generation
// navigates one open tree, so fills and get_root are paid once; without
// a cache, and across an invalidation, buffers stay apart (run under
// -race).

import (
	"sync"
	"testing"

	"mix/internal/buffer"
	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/regioncache"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

const (
	shareHomesQuery = `CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H`
	shareZipsQuery  = `CONSTRUCT <zips> $Z {$Z} </zips> {} WHERE homesSrc homes.home $H AND $H zip._ $Z`
)

func shareHomes(n int, seed int64) *xmltree.Tree {
	homes, _ := workload.HomesSchools(n, 0, 3, seed)
	return homes
}

// shareMediator builds a mediator on rc (nil: no cache) with srv
// registered as homesSrc, and returns it with its buffer.
func shareMediator(t *testing.T, rc *regioncache.Cache, srv lxp.Server) (*mediator.Mediator, *buffer.Buffer) {
	t.Helper()
	m := mediator.New(mediator.DefaultOptions())
	m.SetRegionCache(rc)
	b, err := m.RegisterLXP("homesSrc", srv, "homes")
	if err != nil {
		t.Fatal(err)
	}
	return m, b
}

func shareMaterialize(t *testing.T, m *mediator.Mediator, query string) *xmltree.Tree {
	t.Helper()
	res, err := m.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func shareEager(t *testing.T, homes *xmltree.Tree, query string) *xmltree.Tree {
	t.Helper()
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	want, err := m.QueryEager(query)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func shareServer(homes *xmltree.Tree) *lxp.Counting {
	return lxp.NewCounting(&lxp.TreeServer{Tree: homes, Chunk: 2, InlineLimit: 4})
}

// TestSharedLXPBufferOneExploration: two mediators on one cache get the
// same buffer, and exploring the source through both — one view that
// reads only zip codes, one that copies every home — costs exactly the
// fills of a single full exploration on a private buffer and a single
// get_root. Only the opener reports the buffer's stats.
func TestSharedLXPBufferOneExploration(t *testing.T) {
	homes := shareHomes(12, 5)

	private := shareServer(homes)
	solo, _ := shareMediator(t, nil, private)
	shareMaterialize(t, solo, shareHomesQuery)
	oneExploration := private.Counters.Fills.Load()
	if oneExploration == 0 {
		t.Fatal("exploration issued no fills; the test measures nothing")
	}

	rc := regioncache.New(0)
	shared := shareServer(homes)
	m1, b1 := shareMediator(t, rc, shared)
	m2, b2 := shareMediator(t, rc, shared)
	if b1 != b2 {
		t.Fatal("two mediators on one cache built two buffers for one source")
	}
	if got, want := shareMaterialize(t, m1, shareZipsQuery), shareEager(t, homes, shareZipsQuery); !xmltree.Equal(got, want) {
		t.Fatalf("zips view over the shared buffer:\n got %s\nwant %s", got, want)
	}
	if got, want := shareMaterialize(t, m2, shareHomesQuery), shareEager(t, homes, shareHomesQuery); !xmltree.Equal(got, want) {
		t.Fatalf("homes view over the shared buffer:\n got %s\nwant %s", got, want)
	}
	fills := shared.Counters.Fills.Load()
	if fills != oneExploration {
		t.Fatalf("two explorations through a shared buffer issued %d fills, want %d (one exploration)", fills, oneExploration)
	}
	if roots := shared.Counters.Msgs.Load() - fills; roots != 1 {
		t.Fatalf("shared buffer sent %d get_root messages, want 1", roots)
	}

	st, ok := m1.BufferStats()["homesSrc"]
	if !ok || int64(st.Fills) != fills {
		t.Fatalf("opener's buffer stats %+v (present %v), want %d fills", st, ok, fills)
	}
	if st := m2.BufferStats(); len(st) != 0 {
		t.Fatalf("joining mediator reports buffer stats %+v; only the opener may", st)
	}
}

// TestSharedLXPBufferInvalidate: after Invalidate a newly built mediator
// gets a fresh buffer over the changed source, while mediators pinned to
// the old generation — one that registered before the invalidation, one
// built before it but registering after — keep answering from the old
// data and never reach the table.
func TestSharedLXPBufferInvalidate(t *testing.T) {
	oldHomes, newHomes := shareHomes(6, 1), shareHomes(9, 2)
	rc := regioncache.New(0)

	before, bBefore := shareMediator(t, rc, shareServer(oldHomes))
	pinned := mediator.New(mediator.DefaultOptions())
	pinned.SetRegionCache(rc)

	rc.Invalidate()

	bPinned, err := pinned.RegisterLXP("homesSrc", shareServer(oldHomes), "homes")
	if err != nil {
		t.Fatal(err)
	}
	after, bAfter := shareMediator(t, rc, shareServer(newHomes))
	_, bLater := shareMediator(t, rc, shareServer(newHomes))

	if bAfter == bBefore || bAfter == bPinned || bPinned == bBefore {
		t.Fatal("buffers of different generations are shared")
	}
	if bLater != bAfter {
		t.Fatal("mediators of the new generation do not share their buffer")
	}
	if len(pinned.BufferStats()) != 1 {
		t.Fatal("a stale-generation mediator must open (and report) a private buffer")
	}

	for _, c := range []struct {
		name  string
		m     *mediator.Mediator
		homes *xmltree.Tree
	}{{"before", before, oldHomes}, {"pinned", pinned, oldHomes}, {"after", after, newHomes}} {
		got, want := shareMaterialize(t, c.m, shareHomesQuery), shareEager(t, c.homes, shareHomesQuery)
		if !xmltree.Equal(got, want) {
			t.Fatalf("%s mediator:\n got %s\nwant %s", c.name, got, want)
		}
	}
}

// TestSharedLXPBufferNeedsCache: mediators without a region cache keep
// one buffer each, and each reports its own.
func TestSharedLXPBufferNeedsCache(t *testing.T) {
	srv := shareServer(shareHomes(4, 3))
	m1, b1 := shareMediator(t, nil, srv)
	m2, b2 := shareMediator(t, nil, srv)
	if b1 == b2 {
		t.Fatal("mediators without a cache share a buffer")
	}
	if len(m1.BufferStats()) != 1 || len(m2.BufferStats()) != 1 {
		t.Fatal("every mediator without a cache must report its own buffer")
	}
}

// TestSharedLXPBufferConcurrentRegistration: many mediators registering
// the same source at once build exactly one buffer.
func TestSharedLXPBufferConcurrentRegistration(t *testing.T) {
	rc := regioncache.New(0)
	srv := shareServer(shareHomes(4, 4))
	const n = 16
	meds := make([]*mediator.Mediator, n)
	bufs := make([]*buffer.Buffer, n)
	var wg sync.WaitGroup
	for i := range meds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := mediator.New(mediator.DefaultOptions())
			m.SetRegionCache(rc)
			b, err := m.RegisterLXP("homesSrc", srv, "homes")
			if err != nil {
				t.Error(err)
				return
			}
			meds[i], bufs[i] = m, b
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	openers := 0
	for i := range meds {
		if bufs[i] != bufs[0] {
			t.Fatalf("mediator %d got a different buffer", i)
		}
		openers += len(meds[i].BufferStats())
	}
	if openers != 1 {
		t.Fatalf("%d mediators opened the buffer, want exactly 1", openers)
	}
}
