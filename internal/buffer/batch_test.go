package buffer

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// TestBatchedDemandFillsCoalesceSiblings: the liberal protocol leaves
// several sibling holes under one parent; with batching on, the
// chase_first demand path rides them on one fill_many round trip.
// Materialization must stay identical for every seed.
func TestBatchedDemandFillsCoalesceSiblings(t *testing.T) {
	d := doc()
	var coalesced bool
	for seed := int64(0); seed < 20; seed++ {
		b, err := New(newLiberalServer(d, seed), "u")
		if err != nil {
			t.Fatal(err)
		}
		b.Batch = 4
		got, err := nav.Materialize(b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !xmltree.Equal(got, d) {
			t.Fatalf("seed %d: batched buffer differs:\n%v\nvs\n%v", seed, got, d)
		}
		st := b.Stats()
		if st.RoundTrips > st.Fills {
			t.Fatalf("seed %d: %d round trips for %d fills", seed, st.RoundTrips, st.Fills)
		}
		if st.BatchedFills > 0 {
			coalesced = true
			if st.RoundTrips >= st.Fills {
				t.Fatalf("seed %d: batching fired but saved no round trip: %+v", seed, st)
			}
		}
	}
	if !coalesced {
		t.Fatal("no seed exercised sibling-hole coalescing")
	}
}

// TestBatchOneIsWireIdentical: Batch=1 (and 0) keeps the plain
// one-hole-per-round-trip fill protocol: round trips == fills, and no
// fill is accounted as batched.
func TestBatchOneIsWireIdentical(t *testing.T) {
	for _, batch := range []int{0, 1} {
		b, err := New(newLiberalServer(doc(), 3), "u")
		if err != nil {
			t.Fatal(err)
		}
		b.Batch = batch
		if _, err := nav.Materialize(b); err != nil {
			t.Fatal(err)
		}
		st := b.Stats()
		if st.RoundTrips != st.Fills || st.BatchedFills != 0 {
			t.Fatalf("Batch=%d changed the wire economy: %+v", batch, st)
		}
	}
}

// TestBatchedPrefetchDrain: the asynchronous prefetcher coalesces
// pending holes across parents, so a cold drain of a chunked catalog
// takes a fraction of the single-fill round trips.
func TestBatchedPrefetchDrain(t *testing.T) {
	catalog := workload.Books("az", 60, 4)
	want, err := nav.Materialize(nav.NewTreeDoc(catalog))
	if err != nil {
		t.Fatal(err)
	}
	drain := func(batch int) (Stats, *xmltree.Tree) {
		b, err := New(&lxp.TreeServer{Tree: catalog, Chunk: 5, InlineLimit: 4}, "u")
		if err != nil {
			t.Fatal(err)
		}
		b.Batch = batch
		if _, err := b.Root(); err != nil {
			t.Fatal(err)
		}
		b.StartPrefetch()
		deadline := time.Now().Add(30 * time.Second)
		for b.Stats().PendingHoles > 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		b.StopPrefetch()
		got, err := nav.Materialize(b)
		if err != nil {
			t.Fatal(err)
		}
		return b.Stats(), got
	}
	single, got1 := drain(1)
	batched, got8 := drain(8)
	if !xmltree.Equal(got1, want) || !xmltree.Equal(got8, want) {
		t.Fatal("prefetch drain changed the document")
	}
	if single.Fills != batched.Fills {
		t.Fatalf("batching changed the fill count: %d vs %d", single.Fills, batched.Fills)
	}
	if 2*batched.RoundTrips > single.RoundTrips {
		t.Fatalf("batch=8 used %d round trips vs %d unbatched; want ≥2x fewer",
			batched.RoundTrips, single.RoundTrips)
	}
	if batched.PrefetchFills == 0 || batched.BatchedFills == 0 {
		t.Fatalf("prefetcher did not batch: %+v", batched)
	}
}

// failAfterRoot serves a root whose children are holes, then fails
// every further fill.
type failAfterRoot struct {
	err   error
	holes int
}

func (s *failAfterRoot) GetRoot(string) (string, error) { return "root", nil }

func (s *failAfterRoot) Fill(id string) ([]*xmltree.Tree, error) {
	if id != "root" {
		return nil, s.err
	}
	root := xmltree.Elem("r")
	for i := 0; i < s.holes; i++ {
		root.Children = append(root.Children,
			xmltree.Elem("x", xmltree.Hole(fmt.Sprintf("sub%d", i))))
	}
	return []*xmltree.Tree{root}, nil
}

// TestPrefetchErrorRecorded: prefetch failures must not crash or hang
// the buffer, and must be observable through Stats
// (satellite: surface the last prefetch error).
func TestPrefetchErrorRecorded(t *testing.T) {
	boom := errors.New("wrapper unreachable")
	b, err := New(&failAfterRoot{err: boom, holes: 3}, "u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Root(); err != nil {
		t.Fatal(err)
	}
	b.StartPrefetch()
	deadline := time.Now().Add(30 * time.Second)
	for b.Stats().LastPrefetchError == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.StopPrefetch()
	if st := b.Stats(); st.PrefetchErrors == 0 || !errors.Is(st.LastPrefetchError, boom) {
		t.Fatalf("stats do not surface the prefetch failure: %+v, want %v", st, boom)
	}
	// The demand path still reports the error itself, independently.
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	first, err := b.Down(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Down(first); !errors.Is(err, boom) {
		t.Fatalf("demand path error = %v, want %v", err, boom)
	}
}

// BenchmarkFillsBatchedVsSingle drains a chunked catalog through a
// wrapper that charges a fixed latency per round trip — the economy the
// fill_many batching is for.
func BenchmarkFillsBatchedVsSingle(b *testing.B) {
	catalog := workload.Books("az", 100, 4)
	for _, bc := range []struct {
		name  string
		batch int
	}{
		{"single", 1},
		{"batch8", 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf, err := New(&delayedTreeServer{
					TreeServer: lxp.TreeServer{Tree: catalog, Chunk: 5, InlineLimit: 4},
					delay:      50 * time.Microsecond,
				}, "u")
				if err != nil {
					b.Fatal(err)
				}
				buf.Batch = bc.batch
				if _, err := buf.Root(); err != nil {
					b.Fatal(err)
				}
				buf.StartPrefetch()
				deadline := time.Now().Add(time.Minute)
				for buf.Stats().PendingHoles > 0 && time.Now().Before(deadline) {
					time.Sleep(20 * time.Microsecond)
				}
				buf.StopPrefetch()
				if buf.Stats().PendingHoles != 0 {
					b.Fatal("drain did not finish")
				}
			}
		})
	}
}

// delayedTreeServer charges one fixed delay per round trip, whether it
// carries one hole or many.
type delayedTreeServer struct {
	lxp.TreeServer
	delay time.Duration
}

func (s *delayedTreeServer) Fill(id string) ([]*xmltree.Tree, error) {
	time.Sleep(s.delay)
	return s.TreeServer.Fill(id)
}

func (s *delayedTreeServer) FillMany(ids []string) (map[string][]*xmltree.Tree, error) {
	time.Sleep(s.delay)
	return s.TreeServer.FillMany(ids)
}
