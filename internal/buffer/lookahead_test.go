package buffer

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/xmltree"
)

// scriptedServer wraps a server with what the lazy-root and lookahead
// tests need to steer: per-request counts, requests that park until
// released, and requests that fail a set number of times.
type scriptedServer struct {
	inner lxp.Server

	mu      sync.Mutex
	calls   map[string]int           // requests seen, by hole id ("get_root" for get_root)
	hold    map[string]chan struct{} // a request for this id parks until the channel is closed
	fail    map[string]int           // a request for this id fails this many more times
	entered chan string              // every request's id, as it arrives
	running int                      // fills inside the server now
	peak    int
}

func newScripted(inner lxp.Server) *scriptedServer {
	return &scriptedServer{inner: inner, calls: map[string]int{}, hold: map[string]chan struct{}{},
		fail: map[string]int{}, entered: make(chan string, 4096)}
}

// arrive books a request and reports whether it must fail.
func (s *scriptedServer) arrive(id string) error {
	s.mu.Lock()
	s.calls[id]++
	gate := s.hold[id]
	failing := s.fail[id] > 0
	if failing {
		s.fail[id]--
	}
	s.mu.Unlock()
	s.entered <- id
	if gate != nil {
		<-gate
	}
	if failing {
		return fmt.Errorf("scripted failure of %s", id)
	}
	return nil
}

func (s *scriptedServer) GetRoot(uri string) (string, error) {
	if err := s.arrive("get_root"); err != nil {
		return "", err
	}
	return s.inner.GetRoot(uri)
}

func (s *scriptedServer) Fill(id string) ([]*xmltree.Tree, error) {
	s.mu.Lock()
	s.running++
	if s.running > s.peak {
		s.peak = s.running
	}
	s.mu.Unlock()
	defer func() { s.mu.Lock(); s.running--; s.mu.Unlock() }()
	if err := s.arrive(id); err != nil {
		return nil, err
	}
	return s.inner.Fill(id)
}

func (s *scriptedServer) park(id string) chan struct{} {
	gate := make(chan struct{})
	s.mu.Lock()
	s.hold[id] = gate
	s.mu.Unlock()
	return gate
}

func (s *scriptedServer) count(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[id]
}

func (s *scriptedServer) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.calls {
		n += c
	}
	return n
}

// awaitEntered waits for the next request to reach the server and
// checks it is the expected one.
func (s *scriptedServer) awaitEntered(t *testing.T, want string) {
	t.Helper()
	select {
	case id := <-s.entered:
		if id != want {
			t.Fatalf("server saw a request for %q, want %q", id, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no request for %q reached the server", want)
	}
}

// drainEntered forgets the requests seen so far.
func (s *scriptedServer) drainEntered() {
	for {
		select {
		case <-s.entered:
		default:
			return
		}
	}
}

// TestLazyRootNewSendsNothing: New exchanges no message; the first
// Root() sends get_root and the root fill, later ones nothing.
func TestLazyRootNewSendsNothing(t *testing.T) {
	s := newScripted(&lxp.TreeServer{Tree: doc(), Chunk: 2, InlineLimit: 2})
	b, err := New(s, "u")
	if err != nil {
		t.Fatal(err)
	}
	if n := s.total(); n != 0 {
		t.Fatalf("New exchanged %d messages, want 0", n)
	}
	if st := b.Stats(); st.Fills != 0 || st.RoundTrips != 0 || st.PendingHoles != 1 {
		t.Fatalf("fresh buffer stats %+v, want no fills and the root hole pending", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Root(); err != nil {
			t.Fatal(err)
		}
	}
	if s.count("get_root") != 1 || s.total() != 2 || b.Stats().Fills != 1 {
		t.Fatalf("three Root() calls: %d get_root, %d messages, %d fills; want 1, 2, 1",
			s.count("get_root"), s.total(), b.Stats().Fills)
	}
}

// TestLazyRootBadURI: the error New used to return surfaces at the
// first navigation instead, and a later Root() may succeed — the buffer
// is not poisoned.
func TestLazyRootBadURI(t *testing.T) {
	s := newScripted(&lxp.TreeServer{Tree: doc()})
	s.fail["get_root"] = 1
	b, err := New(s, "elsewhere")
	if err != nil {
		t.Fatalf("New must not fail any more: %v", err)
	}
	if _, err := b.Root(); err == nil || !strings.Contains(err.Error(), `"elsewhere"`) {
		t.Fatalf("first Root() = %v, want the get_root failure naming the uri", err)
	}
	if b.Stats().Fills != 0 {
		t.Fatalf("a failed get_root was followed by %d fills", b.Stats().Fills)
	}
	got, err := nav.Materialize(b)
	if err != nil {
		t.Fatalf("retry after a failed get_root: %v", err)
	}
	if !xmltree.Equal(got, doc()) {
		t.Fatal("document differs after a retried get_root")
	}
	if s.count("get_root") != 2 {
		t.Fatalf("%d get_root messages, want the failed one and the retry", s.count("get_root"))
	}
}

// emptyRootServer hands out an empty root handle.
type emptyRootServer struct{ lxp.TreeServer }

func (emptyRootServer) GetRoot(string) (string, error) { return "", nil }

// TestLazyRootRejectsEmptyHandle: "no identifier yet" is how the buffer
// tells an unopened session, so a server must not hand that out.
func TestLazyRootRejectsEmptyHandle(t *testing.T) {
	b, _ := New(&emptyRootServer{lxp.TreeServer{Tree: doc()}}, "u")
	if _, err := b.Root(); err == nil || !strings.Contains(err.Error(), "empty hole identifier") {
		t.Fatalf("Root() = %v, want the empty-handle error", err)
	}
}

// TestLazyRootConcurrent: 16 concurrent Root() calls on a fresh buffer
// send exactly one get_root and one fill, and all get the same root.
func TestLazyRootConcurrent(t *testing.T) {
	s := newScripted(&lxp.TreeServer{Tree: doc(), Chunk: 2, InlineLimit: 2})
	gate := s.park("get_root")
	b, _ := New(s, "u")
	const callers = 16
	roots := make(chan nav.ID, callers)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			r, err := b.Root()
			roots <- r
			errs <- err
		}()
	}
	s.awaitEntered(t, "get_root")
	time.Sleep(20 * time.Millisecond) // let the other callers queue up behind it
	close(gate)
	first := <-roots
	for i := 1; i < callers; i++ {
		if r := <-roots; r != first {
			t.Fatal("concurrent Root() calls returned different roots")
		}
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if s.count("get_root") != 1 || s.total() != 2 {
		t.Fatalf("%d get_root and %d messages in all, want 1 and 2", s.count("get_root"), s.total())
	}
}

// sectioned builds root[sec[item×n]×sections]: under
// TreeServer{Chunk: 4, InlineLimit: 2} every section is a hole of its
// own and its items arrive in chunks of 4, 4, 8, 16, 16, … (lxp.ChunkAt),
// holes "<sec>:4", "<sec>:8", "<sec>:16", "<sec>:32"…
func sectioned(sections, items int) *xmltree.Tree {
	root := xmltree.Elem("root")
	for s := 0; s < sections; s++ {
		sec := xmltree.Elem("sec")
		for i := 0; i < items; i++ {
			sec.Children = append(sec.Children, xmltree.Elem("item", xmltree.Leaf(fmt.Sprintf("v%d.%d", s, i))))
		}
		root.Children = append(root.Children, sec)
	}
	return root
}

func mustNav(t *testing.T, step func(nav.ID) (nav.ID, error), from nav.ID) nav.ID {
	t.Helper()
	to, err := step(from)
	if err != nil || to == nil {
		t.Fatalf("navigation from %v: %v, %v", from, to, err)
	}
	return to
}

// rights takes n Right steps.
func rights(t *testing.T, b *Buffer, p nav.ID, n int) nav.ID {
	t.Helper()
	for i := 0; i < n; i++ {
		p = mustNav(t, b.Right, p)
	}
	return p
}

func wantStats(t *testing.T, b *Buffer, when string, fills, prefetch int) {
	t.Helper()
	if st := b.Stats(); st.Fills != fills || st.PrefetchFills != prefetch {
		t.Fatalf("%s: %d fills of which %d prefetch, want %d and %d", when, st.Fills, st.PrefetchFills, fills, prefetch)
	}
}

// TestLookaheadScan walks a chunked source behind gates and pins the
// lookahead rule: nothing before the first chunk boundary, exactly one
// lookahead in flight after it and never a second, a demander of the
// in-flight hole waits instead of refetching, a failing lookahead is
// recorded but never surfaces on the demand path, and the explored
// document is the one a lookahead-free buffer explores, for the same
// number of fills.
func TestLookaheadScan(t *testing.T) {
	src := sectioned(3, 32)
	s := newScripted(&lxp.TreeServer{Tree: src, Chunk: 4, InlineLimit: 2})
	b, _ := New(s, "u")
	b.EnableLookahead()

	root := mustNav(t, func(nav.ID) (nav.ID, error) { return b.Root() }, nil)
	sec0 := mustNav(t, b.Down, root)
	item := rights(t, b, mustNav(t, b.Down, sec0), 3) // item 3: the last of the first chunk
	wantStats(t, b, "before the first boundary", 3, 0)

	// Crossing the boundary waits for 0:4 and then looks ahead to 0:8.
	gate08 := s.park("0:8")
	s.drainEntered()
	item = rights(t, b, item, 1)
	s.awaitEntered(t, "0:4")
	s.awaitEntered(t, "0:8")
	wantStats(t, b, "after the first boundary", 5, 1)

	// A second boundary elsewhere, while 0:8 is still on the wire: its
	// demand fill goes out, a second lookahead does not.
	sec1 := mustNav(t, b.Right, sec0)
	item1 := rights(t, b, mustNav(t, b.Down, sec1), 4)
	wantStats(t, b, "second boundary under a busy lookahead", 7, 1)
	if s.count("1:8") != 0 {
		t.Fatal("a second lookahead went out while the first was in flight")
	}

	// A demander of the in-flight hole waits for it.
	item = rights(t, b, item, 3) // item 7: next is the hole 0:8
	arrived := make(chan nav.ID, 1)
	go func() {
		next, err := b.Right(item)
		if err != nil {
			t.Error(err)
		}
		arrived <- next
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the hole; the assertions hold either way
	close(gate08)
	item = <-arrived
	if item == nil {
		t.Fatal("demander of the in-flight hole got no node")
	}
	if s.count("0:8") != 1 {
		t.Fatalf("hole 0:8 was filled %d times, want once", s.count("0:8"))
	}
	wantStats(t, b, "after the in-flight hole resolved", 7, 1)

	// Walking into a looked-ahead chunk (items 8…15, grown to twice
	// the first) starts nothing: the next boundary is an ordinary demand
	// fill, which looks ahead again.
	item = rights(t, b, item, 7) // item 15
	wantStats(t, b, "inside the looked-ahead chunk", 7, 1)

	// A failing lookahead is recorded, and the scan that reaches the
	// hole later fills it on demand without ever seeing the failure.
	s.mu.Lock()
	s.fail["1:16"] = 1
	s.mu.Unlock()
	item1 = rights(t, b, item1, 4) // crosses 1:8 on demand, looks ahead to 1:16, which fails
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().PrefetchErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failed lookahead never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if st := b.Stats(); st.PrefetchErrors != 1 || st.LastPrefetchError == nil || !strings.Contains(st.LastPrefetchError.Error(), "1:16") {
		t.Fatalf("stats after a failed lookahead: %+v", st)
	}
	rights(t, b, item1, 8) // crosses 1:16: a demand fill that succeeds
	if s.count("1:16") != 2 {
		t.Fatalf("hole 1:16 requested %d times, want the failed lookahead and the demand fill", s.count("1:16"))
	}

	// Explore the rest and compare with a lookahead-free buffer.
	got, err := nav.Materialize(b)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, src) {
		t.Fatal("lookahead changed the document")
	}
	plain, _ := New(&lxp.TreeServer{Tree: src, Chunk: 4, InlineLimit: 2}, "u")
	if _, err := nav.Materialize(plain); err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(b.Snapshot(), plain.Snapshot()) {
		t.Fatal("snapshot differs from the lookahead-free buffer's")
	}
	if st := b.Stats(); st.Fills != plain.Stats().Fills+1 || st.PendingHoles != 0 {
		t.Fatalf("%d fills (lookahead-free: %d, plus the one that failed), %d holes pending",
			st.Fills, plain.Stats().Fills, st.PendingHoles)
	}
	if s.peak > 2 {
		t.Fatalf("%d fills at the server at once: more than a demand fill and one lookahead", s.peak)
	}
}

// TestLookaheadDownOnly: a client that only descends never triggers the
// lookahead, whatever holes it passes.
func TestLookaheadDownOnly(t *testing.T) {
	s := newScripted(&lxp.TreeServer{Tree: sectioned(3, 16), Chunk: 4, InlineLimit: 2})
	b, _ := New(s, "u")
	b.EnableLookahead()
	p, err := b.Root()
	for depth := 0; err == nil && p != nil; depth++ {
		p, err = b.Down(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	wantStats(t, b, "after a Down-only walk", 3, 0)
	if s.total() != 4 {
		t.Fatalf("%d messages, want get_root and three fills", s.total())
	}
}

// TestLookaheadOffByDefault: a buffer from New looks ahead only after
// EnableLookahead, so direct users keep their message counts.
func TestLookaheadOffByDefault(t *testing.T) {
	s := newScripted(&lxp.TreeServer{Tree: sectioned(1, 16), Chunk: 4, InlineLimit: 2})
	b, _ := New(s, "u")
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	rights(t, b, mustNav(t, b.Down, mustNav(t, b.Down, root)), 9)
	wantStats(t, b, "lookahead off", 5, 0)
}

// TestLookaheadConcurrentScans: several goroutines scanning the same
// lookahead buffer see the whole document, and every hole is requested
// exactly once.
func TestLookaheadConcurrentScans(t *testing.T) {
	src := sectioned(4, 40)
	s := newScripted(&lxp.TreeServer{Tree: src, Chunk: 4, InlineLimit: 2})
	b, _ := New(s, "u")
	b.EnableLookahead()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := nav.Materialize(b)
			if err != nil {
				t.Error(err)
			} else if !xmltree.Equal(got, src) {
				t.Error(errors.New("a concurrent scan saw a different document"))
			}
		}()
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, n := range s.calls {
		if n != 1 {
			t.Errorf("%s requested %d times", id, n)
		}
	}
}
