package buffer

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

func doc() *xmltree.Tree {
	return xmltree.Elem("catalog",
		xmltree.Elem("book", xmltree.Text("title", "t1"), xmltree.Text("price", "10")),
		xmltree.Elem("book", xmltree.Text("title", "t2"), xmltree.Text("price", "20")),
		xmltree.Elem("book", xmltree.Text("title", "t3"), xmltree.Text("price", "30")),
		xmltree.Elem("book", xmltree.Text("title", "t4"), xmltree.Text("price", "40")),
	)
}

func TestBufferTransparency(t *testing.T) {
	// A buffered chunked source is observationally identical to the
	// plain tree, for all chunkings.
	d := doc()
	for _, chunk := range []int{1, 2, 3, 100} {
		for _, inline := range []int{0, 1, 2, 5, 100} {
			b, err := New(&lxp.TreeServer{Tree: d, Chunk: chunk, InlineLimit: inline}, "u")
			if err != nil {
				t.Fatal(err)
			}
			got, err := nav.Materialize(b)
			if err != nil {
				t.Fatalf("chunk=%d inline=%d: %v", chunk, inline, err)
			}
			if !xmltree.Equal(got, d) {
				t.Fatalf("chunk=%d inline=%d: %v", chunk, inline, got)
			}
		}
	}
}

func TestBufferLazyFills(t *testing.T) {
	d := doc()
	cs := lxp.NewCounting(&lxp.TreeServer{Tree: d, Chunk: 1, InlineLimit: 1})
	b, err := New(cs, "u")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Counters.Fills.Load() != 0 {
		t.Fatal("opening the buffer must not fill")
	}
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	afterRoot := cs.Counters.Fills.Load()
	if afterRoot == 0 {
		t.Fatal("resolving the root requires one fill")
	}
	// Navigating to the first book touches one more chunk, not all.
	first, err := b.Down(root)
	if err != nil || first == nil {
		t.Fatalf("Down: %v %v", first, err)
	}
	partial := cs.Counters.Fills.Load()
	if _, err := nav.Materialize(b); err != nil {
		t.Fatal(err)
	}
	full := cs.Counters.Fills.Load()
	if partial >= full {
		t.Fatalf("full exploration (%d fills) should exceed partial (%d)", full, partial)
	}
}

func TestBufferRepeatNavigationFillsOnce(t *testing.T) {
	d := doc()
	cs := lxp.NewCounting(&lxp.TreeServer{Tree: d, Chunk: 2, InlineLimit: 2})
	b, err := New(cs, "u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nav.Materialize(b); err != nil {
		t.Fatal(err)
	}
	n := cs.Counters.Fills.Load()
	if _, err := nav.Materialize(b); err != nil {
		t.Fatal(err)
	}
	if cs.Counters.Fills.Load() != n {
		t.Fatal("re-navigation must be served from the buffer")
	}
	if b.Stats().Fills != int(n) {
		t.Fatalf("Buffer.Fills = %d, counter = %d", b.Stats().Fills, n)
	}
}

func TestBufferSnapshotShowsHoles(t *testing.T) {
	b, err := New(&lxp.TreeServer{Tree: doc(), Chunk: 1, InlineLimit: 1}, "u")
	if err != nil {
		t.Fatal(err)
	}
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Down(root); err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	if !snap.IsOpen() {
		t.Fatalf("partially explored buffer should have holes: %v", snap)
	}
	if _, err := nav.Materialize(b); err != nil {
		t.Fatal(err)
	}
	if b.Snapshot().IsOpen() {
		t.Fatalf("fully explored buffer should be closed: %v", b.Snapshot())
	}
}

// liberalServer serves a fixed tree but answers fills in a maximally
// liberal way: children are revealed in a random order, one real
// element per fill, with holes for both the left and right remainders.
// With deep set, a revealed element's children are, at random, one
// hole, the element's own closed subtree, or revealed the same way in
// the same fill, so holes and closed subtrees sit at any depth of a
// fragment.
type liberalServer struct {
	tree  *xmltree.Tree
	r     *rand.Rand
	holes map[string][]*xmltree.Tree // hole id → the sublist it represents
	next  int
	deep  bool
}

func newLiberalServer(t *xmltree.Tree, seed int64) *liberalServer {
	return &liberalServer{tree: t, r: rand.New(rand.NewSource(seed)),
		holes: map[string][]*xmltree.Tree{}}
}

func (s *liberalServer) GetRoot(string) (string, error) {
	id := s.fresh([]*xmltree.Tree{s.tree})
	return id, nil
}

func (s *liberalServer) fresh(sublist []*xmltree.Tree) string {
	s.next++
	id := fmt.Sprintf("h%d", s.next)
	s.holes[id] = sublist
	return id
}

// Fill reveals one element of the hole's sublist, chosen at random,
// leaving holes on both sides; the revealed element's children are a
// single fresh hole (unless it is a leaf), or, with deep set, see
// liberalServer.
func (s *liberalServer) Fill(id string) ([]*xmltree.Tree, error) {
	sub, ok := s.holes[id]
	if !ok {
		return nil, fmt.Errorf("stale hole %q", id)
	}
	delete(s.holes, id)
	if len(sub) == 0 {
		return nil, nil
	}
	return s.reveal(sub), nil
}

// reveal renders a non-empty sublist as one element chosen at random
// with holes for the remainders on both sides.
func (s *liberalServer) reveal(sub []*xmltree.Tree) []*xmltree.Tree {
	pick := s.r.Intn(len(sub))
	chosen := sub[pick]
	rendered := &xmltree.Tree{Label: chosen.Label}
	if len(chosen.Children) > 0 {
		k := 0
		if s.deep {
			k = s.r.Intn(3)
		}
		switch k {
		case 0:
			rendered.Children = []*xmltree.Tree{xmltree.Hole(s.fresh(chosen.Children))}
		case 1:
			rendered = chosen // closed: the source's own subtree
		default:
			rendered.Children = s.reveal(chosen.Children)
		}
	}
	var out []*xmltree.Tree
	if pick > 0 {
		out = append(out, xmltree.Hole(s.fresh(sub[:pick])))
	}
	out = append(out, rendered)
	if pick+1 < len(sub) {
		out = append(out, xmltree.Hole(s.fresh(sub[pick+1:])))
	}
	return out
}

func TestBufferLiberalProtocol(t *testing.T) {
	d := doc()
	for seed := int64(0); seed < 20; seed++ {
		b, err := New(newLiberalServer(d, seed), "u")
		if err != nil {
			t.Fatal(err)
		}
		got, err := nav.Materialize(b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !xmltree.Equal(got, d) {
			t.Fatalf("seed %d: liberal buffer differs:\n%v\nvs\n%v", seed, got, d)
		}
	}
}

// TestQuickBufferLiberalEqualsTree: over liberal fragments — with deep
// set on every other seed, holes and closed subtrees at any depth — a
// random navigation answers what the source tree answers, and after
// every step the pending holes are the holes of Snapshot, and mutating
// a Snapshot changes nothing the buffer answers. The prefetcher then
// drains the rest, and the buffer materializes to the source tree.
func TestQuickBufferLiberalEqualsTree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 4)
		if tr.IsLeaf() {
			tr = xmltree.Elem("root", tr)
		}
		want := tr.Clone()
		srv := newLiberalServer(tr, seed+1)
		srv.deep = seed%2 == 0
		b, err := New(srv, "u")
		if err != nil {
			return false
		}
		if err := liberalWalk(b, tr, r); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		b.StartPrefetch()
		for deadline := time.Now().Add(5 * time.Second); b.Stats().PendingHoles > 0; {
			if time.Now().After(deadline) {
				t.Logf("seed %d: prefetcher stalled with %d holes", seed, b.Stats().PendingHoles)
				return false
			}
			time.Sleep(100 * time.Microsecond)
		}
		b.StopPrefetch()
		got, err := nav.Materialize(b)
		return err == nil && xmltree.Equal(got, want) && xmltree.Equal(b.Snapshot(), want) &&
			xmltree.Equal(tr, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// liberalWalk navigates b at random alongside the source tree tr it
// buffers, checking every answer against tr and the buffer's
// invariants after every step.
func liberalWalk(b *Buffer, tr *xmltree.Tree, r *rand.Rand) error {
	type pos struct {
		id  nav.ID
		t   *xmltree.Tree
		idx int // index among the parent's children
	}
	root, err := b.Root()
	if err != nil {
		return err
	}
	path := []pos{{root, tr, 0}}
	for step := 0; step < 40; step++ {
		cur := &path[len(path)-1]
		switch r.Intn(4) {
		case 0: // down
			id, err := b.Down(cur.id)
			if err != nil {
				return err
			}
			if (id == nil) != cur.t.IsLeaf() {
				return fmt.Errorf("step %d: Down = %v under %q", step, id, cur.t.Label)
			}
			if id != nil {
				path = append(path, pos{id, cur.t.Children[0], 0})
			}
		case 1: // right
			var next *xmltree.Tree
			if len(path) > 1 {
				if sibs := path[len(path)-2].t.Children; cur.idx+1 < len(sibs) {
					next = sibs[cur.idx+1]
				}
			}
			id, err := b.Right(cur.id)
			if err != nil {
				return err
			}
			if (id == nil) != (next == nil) {
				return fmt.Errorf("step %d: Right = %v after %q", step, id, cur.t.Label)
			}
			if id != nil {
				*cur = pos{id, next, cur.idx + 1}
			}
		case 2: // up
			if len(path) > 1 {
				path = path[:len(path)-1]
			}
		}
		cur = &path[len(path)-1]
		if l, err := b.Fetch(cur.id); err != nil || l != cur.t.Label {
			return fmt.Errorf("step %d: Fetch = %q, %v, want %q", step, l, err, cur.t.Label)
		}
		snap, ref := b.Snapshot(), b.Snapshot()
		if n := len(snap.Holes()); n != b.Stats().PendingHoles {
			return fmt.Errorf("step %d: %d holes in the snapshot, %d pending", step, n, b.Stats().PendingHoles)
		}
		snap.Walk(func(n *xmltree.Tree, _ int) bool {
			n.Label += "!"
			n.Children = n.Children[:len(n.Children)/2]
			return true
		})
		if again := b.Snapshot(); !xmltree.Equal(again, ref) {
			return fmt.Errorf("step %d: mutating a snapshot changed the buffer: %v, was %v", step, again, ref)
		}
		if l, err := b.Fetch(cur.id); err != nil || l != cur.t.Label {
			return fmt.Errorf("step %d: after mutating a snapshot, Fetch = %q, %v, want %q", step, l, err, cur.t.Label)
		}
	}
	return nil
}

func randomTree(r *rand.Rand, depth int) *xmltree.Tree {
	labels := []string{"a", "b", "c"}
	t := &xmltree.Tree{Label: labels[r.Intn(len(labels))]}
	if depth <= 0 {
		return t
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		t.Children = append(t.Children, randomTree(r, depth-1))
	}
	return t
}

// violatingServer breaks the protocol in configurable ways.
type violatingServer struct{ mode string }

func (v *violatingServer) GetRoot(string) (string, error) { return "root", nil }

func (v *violatingServer) Fill(id string) ([]*xmltree.Tree, error) {
	switch v.mode {
	case "adjacent":
		if id == "root" {
			return []*xmltree.Tree{xmltree.Elem("r", xmltree.Hole("a"), xmltree.Hole("b"))}, nil
		}
		return []*xmltree.Tree{xmltree.Leaf("x")}, nil
	case "allholes":
		if id == "root" {
			return []*xmltree.Tree{xmltree.Elem("r", xmltree.Hole("a"))}, nil
		}
		return []*xmltree.Tree{xmltree.Hole("c"), xmltree.Hole("d")}, nil
	case "error":
		return nil, fmt.Errorf("wrapper exploded")
	default:
		return nil, nil
	}
}

func TestBufferRejectsProtocolViolations(t *testing.T) {
	for _, mode := range []string{"adjacent", "allholes", "error"} {
		b, err := New(&violatingServer{mode: mode}, "u")
		if err != nil {
			t.Fatal(err)
		}
		_, err = nav.Materialize(b)
		if err == nil {
			t.Errorf("mode %q: expected failure", mode)
		}
	}
}

func TestBufferForeignID(t *testing.T) {
	b, err := New(&lxp.TreeServer{Tree: doc()}, "u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Down("bogus"); err == nil {
		t.Fatal("foreign id should error")
	}
	if _, err := b.Fetch(nil); err == nil {
		t.Fatal("nil id should error")
	}
}

func TestBufferRightAtRoot(t *testing.T) {
	b, err := New(&lxp.TreeServer{Tree: doc()}, "u")
	if err != nil {
		t.Fatal(err)
	}
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.Right(root)
	if err != nil || r != nil {
		t.Fatalf("root has no siblings: %v %v", r, err)
	}
}

// slowServer delays each fill slightly so prefetching and demand
// genuinely interleave.
type slowServer struct {
	inner lxp.Server
}

func (s slowServer) GetRoot(uri string) (string, error) { return s.inner.GetRoot(uri) }
func (s slowServer) Fill(id string) ([]*xmltree.Tree, error) {
	time.Sleep(200 * time.Microsecond)
	return s.inner.Fill(id)
}

func TestAsyncPrefetchFillsEverything(t *testing.T) {
	d := doc()
	cs := lxp.NewCounting(&lxp.TreeServer{Tree: d, Chunk: 1, InlineLimit: 1})
	b, err := New(cs, "u")
	if err != nil {
		t.Fatal(err)
	}
	// The client resolves the root; the prefetcher does the rest.
	if _, err := b.Root(); err != nil {
		t.Fatal(err)
	}
	b.StartPrefetch()
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().PendingHoles > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("prefetcher stalled with %d holes:\n%v", b.Stats().PendingHoles, b.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	b.StopPrefetch()
	if b.Snapshot().IsOpen() {
		t.Fatal("open tree after complete prefetch")
	}
	// Navigation is now free of fills.
	before := cs.Counters.Fills.Load()
	got, err := nav.Materialize(b)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Counters.Fills.Load() != before {
		t.Fatal("navigation after full prefetch should not fill")
	}
	if !xmltree.Equal(got, d) {
		t.Fatal("prefetched document differs")
	}
}

func TestAsyncPrefetchConcurrentWithNavigation(t *testing.T) {
	d := workload.Books("az", 150, 9)
	b, err := New(slowServer{inner: &lxp.TreeServer{Tree: d, Chunk: 3, InlineLimit: 16}}, "u")
	if err != nil {
		t.Fatal(err)
	}
	b.StartPrefetch()
	defer b.StopPrefetch()
	got, err := nav.Materialize(b)
	if err != nil {
		t.Fatalf("navigation racing prefetch: %v", err)
	}
	if !xmltree.Equal(got, d) {
		t.Fatal("document corrupted under concurrent prefetch")
	}
}

func TestConcurrentReaders(t *testing.T) {
	d := workload.Books("az", 100, 4)
	b, err := New(&lxp.TreeServer{Tree: d, Chunk: 2, InlineLimit: 8}, "u")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := nav.Materialize(b)
			if err != nil {
				errs <- err
				return
			}
			if !xmltree.Equal(got, d) {
				errs <- fmt.Errorf("reader saw a different document")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStopPrefetchIdle(t *testing.T) {
	b, err := New(&lxp.TreeServer{Tree: doc()}, "u")
	if err != nil {
		t.Fatal(err)
	}
	b.StartPrefetch()
	b.StopPrefetch() // must not hang even though the root is unresolved
	if b.Stats().PendingHoles != 1 {
		t.Fatalf("pending = %d, want the root hole", b.Stats().PendingHoles)
	}
}
