package regioncache

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

func sampleTree() *xmltree.Tree {
	return xmltree.Elem("bs",
		xmltree.Elem("b", xmltree.Elem("home", xmltree.Leaf("h1")), xmltree.Elem("school", xmltree.Leaf("s1"))),
		xmltree.Elem("b", xmltree.Elem("home", xmltree.Leaf("h2")), xmltree.Elem("school", xmltree.Leaf("s2"))),
		xmltree.Elem("b", xmltree.Elem("home", xmltree.Leaf("h3"))),
	)
}

// newDoc returns a session's document over entry whose producer, if the
// entry has none on the session's first miss, is inner.
func newDoc(entry *Entry, inner nav.Document) *Doc {
	return NewDoc(entry, func() nav.Document { return inner }, nil)
}

// explore walks doc depth-first and returns the fully materialized tree.
func explore(t *testing.T, doc nav.Document) *xmltree.Tree {
	t.Helper()
	root, err := doc.Root()
	if err != nil {
		t.Fatalf("root: %v", err)
	}
	var walk func(id nav.ID) *xmltree.Tree
	walk = func(id nav.ID) *xmltree.Tree {
		label, err := doc.Fetch(id)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		out := &xmltree.Tree{Label: label}
		c, err := doc.Down(id)
		if err != nil {
			t.Fatalf("down: %v", err)
		}
		for c != nil {
			out.Children = append(out.Children, walk(c))
			c, err = doc.Right(c)
			if err != nil {
				t.Fatalf("right: %v", err)
			}
		}
		return out
	}
	return walk(root)
}

func TestColdThenWarmZeroInnerNavigations(t *testing.T) {
	c := New(0)
	entry := c.Entry("v", "fp", 1)

	cold := nav.NewCountingDoc(nav.NewTreeDoc(sampleTree()))
	got := explore(t, newDoc(entry, cold))
	if !xmltree.Equal(got, sampleTree()) {
		t.Fatalf("cold explore mismatch:\n%s", got)
	}
	if cold.Counters.Navigations() == 0 {
		t.Fatal("cold session performed no inner navigations")
	}

	// A second session over the same entry: every command is a hit.
	warm := nav.NewCountingDoc(nav.NewTreeDoc(sampleTree()))
	got2 := explore(t, newDoc(entry, warm))
	if !xmltree.Equal(got2, sampleTree()) {
		t.Fatalf("warm explore mismatch:\n%s", got2)
	}
	if n := warm.Counters.Navigations(); n != 0 {
		t.Fatalf("warm session performed %d inner navigations, want 0", n)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.BytesSaved == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
}

func TestPartialExplorationResolvesFrontierOnly(t *testing.T) {
	c := New(0)
	entry := c.Entry("v", "fp", 1)

	// Session 1 explores only the first b element; its document becomes
	// the entry's producer.
	prod := nav.NewCountingDoc(nav.NewTreeDoc(sampleTree()))
	d1 := newDoc(entry, prod)
	root, _ := d1.Root()
	b1, _ := d1.Down(root)
	h1, _ := d1.Down(b1)
	if l, _ := d1.Fetch(h1); l != "home" {
		t.Fatalf("fetch = %q", l)
	}

	// Session 2 walks past the cached frontier: the entry answers what
	// it holds, and the producer continues from where session 1 left it.
	unused := nav.NewCountingDoc(nav.NewTreeDoc(sampleTree()))
	d2 := newDoc(entry, unused)
	before := prod.Counters.Snapshot()
	root2, _ := d2.Root()
	b, _ := d2.Down(root2)                 // hit
	h, _ := d2.Down(b)                     // hit
	if _, err := d2.Fetch(h); err != nil { // hit
		t.Fatal(err)
	}
	if d := prod.Counters.Snapshot().Sub(before); d.Navigations() != 0 {
		t.Fatalf("within cached region: %+v producer navigations, want 0", d)
	}
	sib, err := d2.Right(h) // miss: one r from h, whose id the producer kept
	if err != nil || sib == nil {
		t.Fatalf("right: %v %v", sib, err)
	}
	if d := prod.Counters.Snapshot().Sub(before); d.Right != 1 || d.Navigations() != 1 {
		t.Fatalf("frontier Right cost %+v producer navigations, want one r", d)
	}
	if n := unused.Counters.Navigations(); n != 0 {
		t.Fatalf("the second session's document was navigated %d times; the entry has a producer", n)
	}
}

// TestMergedRegionReplayedOnce: nodes a merge published carry no
// producer id, so the first miss past them replays d/r to them from the
// producer's nearest known node, and no later miss replays them again.
func TestMergedRegionReplayedOnce(t *testing.T) {
	e := New(0).Entry("v", "fp", 1)
	// bs[b[home[h1], …], b[home[h2], …], …], each … a list that may go on.
	e.Merge(&Region{
		{Label: "bs", Down: 1, Right: WindowNone},
		{Label: "b", Down: 2, Right: 4},
		{Label: "home", Down: 3, Right: WindowOut},
		{Label: "h1", Down: WindowNone, Right: WindowNone},
		{Label: "b", Down: 5, Right: WindowOut},
		{Label: "home", Down: 6, Right: WindowOut},
		{Label: "h2", Down: WindowNone, Right: WindowNone},
	})
	prod := nav.NewCountingDoc(nav.NewTreeDoc(sampleTree()))
	d := newDoc(e, prod)
	root, _ := d.Root()
	b1, _ := d.Down(root)
	b2, _ := d.Right(b1)
	if prod.Counters.Navigations() != 0 {
		t.Fatal("the merged prefix was not answered from the entry")
	}
	// Past the merged prefix: root, d, r to b2, then the r that misses.
	if b3, err := d.Right(b2); err != nil || b3 == nil {
		t.Fatalf("right past the merge: %v %v", b3, err)
	}
	if got := prod.Counters.Snapshot(); got.Root != 1 || got.Down != 1 || got.Right != 2 {
		t.Fatalf("first miss past the merge cost %+v, want root + d + 2 r", got)
	}
	// b1's school is unknown: b1 already carries its id, so only its
	// own d and r are paid.
	before := prod.Counters.Snapshot()
	h, _ := d.Down(b1)
	if s, err := d.Right(h); err != nil || s == nil {
		t.Fatalf("school: %v %v", s, err)
	}
	if got := prod.Counters.Snapshot().Sub(before); got.Root != 0 || got.Down != 1 || got.Right != 1 {
		t.Fatalf("second miss cost %+v, want one d (the replay to home) and one r", got)
	}
}

// TestCompleteEntryRetiresProducer: once the entry is complete no
// navigation can miss, so its next open lets go of its producer and the
// ids it issued.
func TestCompleteEntryRetiresProducer(t *testing.T) {
	c := New(0)
	e := c.Entry("v", "fp", 1)
	explore(t, newDoc(e, nav.NewTreeDoc(sampleTree())))
	if !e.Complete() || e.prod == nil {
		t.Fatal("explored entry is not complete, or has no producer")
	}
	if c.Entry("v", "fp", 1) != e || e.prod != nil || e.root.id != nil {
		t.Fatal("reopening a complete entry kept its producer")
	}
}

// failDoc fails every navigation while fail is set.
type failDoc struct {
	nav.Document
	fail bool
}

func (f *failDoc) err() error {
	if f.fail {
		return errors.New("source down")
	}
	return nil
}

func (f *failDoc) Down(p nav.ID) (nav.ID, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	return f.Document.Down(p)
}

func (f *failDoc) Right(p nav.ID) (nav.ID, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	return f.Document.Right(p)
}

// TestFailedProducerIsReplaced: a producer whose navigation fails is
// dropped, since a lazy answer keeps its errors; the next miss, from
// another session, builds a fresh producer from that session and
// replays to the nodes the first one derived.
func TestFailedProducerIsReplaced(t *testing.T) {
	e := New(0).Entry("v", "fp", 1)
	flaky := &failDoc{Document: nav.NewTreeDoc(sampleTree())}
	a := newDoc(e, flaky)
	root, _ := a.Root()
	b1, _ := a.Down(root)
	flaky.fail = true
	if _, err := a.Right(b1); err == nil {
		t.Fatal("the failing source's error was not reported")
	}
	healthy := nav.NewCountingDoc(nav.NewTreeDoc(sampleTree()))
	if got := explore(t, newDoc(e, healthy)); !xmltree.Equal(got, sampleTree()) {
		t.Fatalf("explore after a failed producer:\n%s", got)
	}
	if healthy.Counters.Navigations() == 0 {
		t.Fatal("the entry kept the failed producer")
	}
}

// gateDoc blocks every navigation while its gate is armed, after
// announcing it on entered.
type gateDoc struct {
	nav.Document
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateDoc) wait() {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
}

func (g *gateDoc) Down(p nav.ID) (nav.ID, error)  { g.wait(); return g.Document.Down(p) }
func (g *gateDoc) Right(p nav.ID) (nav.ID, error) { g.wait(); return g.Document.Right(p) }
func (g *gateDoc) Fetch(p nav.ID) (string, error) { g.wait(); return g.Document.Fetch(p) }

// TestHitNeverWaitsOnMiss: while one session's miss is blocked inside
// the producer's source, another session's hits on the entry's known
// prefix return. The producer runs under its own lock, not the entry's
// read/write lock.
func TestHitNeverWaitsOnMiss(t *testing.T) {
	e := New(0).Entry("v", "fp", 1)
	gate := &gateDoc{Document: nav.NewTreeDoc(sampleTree()), entered: make(chan struct{}), release: make(chan struct{})}
	a := newDoc(e, gate)
	root, _ := a.Root()
	b1, err := a.Down(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Fetch(b1); err != nil {
		t.Fatal(err)
	}

	gate.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := a.Right(b1) // a miss: blocks inside the producer
		done <- err
	}()
	<-gate.entered

	b := newDoc(e, nav.NewTreeDoc(sampleTree()))
	hits := make(chan error, 1)
	go func() {
		broot, _ := b.Root()
		kid, err := b.Down(broot)
		if err == nil {
			_, err = b.Fetch(kid)
		}
		hits <- err
	}()
	select {
	case err := <-hits:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a hit on the known prefix waited on another session's miss")
	}
	gate.armed.Store(false)
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateSeparatesGenerations(t *testing.T) {
	c := New(0)
	e1 := c.Entry("v", "fp", 1)
	e1.storeLabel(nil, "bs")
	if g := c.Invalidate(); g != 1 {
		t.Fatalf("generation = %d", g)
	}
	if !e1.dead.Load() {
		t.Fatal("old-generation entry not dropped")
	}
	e2 := c.Entry("v", "fp", 1)
	if e2 == e1 {
		t.Fatal("new generation reused the dropped entry")
	}
	if _, ok := e2.lookupLabel(nil); ok {
		t.Fatal("fresh entry carries old data")
	}
	// Detached entries stay readable and writable for their sessions.
	if l, ok := e1.lookupLabel(nil); !ok || l != "bs" {
		t.Fatal("detached entry lost its data")
	}
	e1.storeLabel([]int{0}, "x") // must not panic or corrupt accounting
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestRegistryVersionSeparatesEntries(t *testing.T) {
	c := New(0)
	if c.Entry("v", "fp", 1) == c.Entry("v", "fp", 2) {
		t.Fatal("different registry versions share an entry")
	}
	if c.Entry("v", "fp", 1) != c.Entry("v", "fp", 1) {
		t.Fatal("same key does not share an entry")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(200) // tiny budget: a few nodes
	old := c.Entry("old", "fp", 1)
	d1 := newDoc(old, nav.NewTreeDoc(sampleTree()))
	explore(t, d1)
	hot := c.Entry("hot", "fp", 1)
	d2 := newDoc(hot, nav.NewTreeDoc(sampleTree()))
	explore(t, d2)
	if !old.dead.Load() {
		t.Fatal("LRU entry not evicted under budget pressure")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if c.maxBytes > 0 && st.Bytes > c.maxBytes+nodeBytes {
		t.Fatalf("bytes %d way over budget %d", st.Bytes, c.maxBytes)
	}
}

// TestExportRendersOpenTree: an export renders an incomplete child list
// as a link past the region (WindowOut), a node whose label is known but
// whose children are not with Down = WindowOut.
func TestExportRendersOpenTree(t *testing.T) {
	c := New(0)
	e := c.Entry("v", "fp", 1)
	d := newDoc(e, nav.NewTreeDoc(sampleTree()))
	root, _ := d.Root()
	d.Fetch(root)
	b, _ := d.Down(root)
	d.Fetch(b)
	want := Region{
		{Label: "bs", Down: 1, Right: WindowNone},
		{Label: "b", Down: WindowOut, Right: WindowOut},
	}
	if got := e.Export(); !slices.Equal(*got, want) {
		t.Fatalf("export %+v, want %+v", *got, want)
	}
}

func TestDivergenceDetected(t *testing.T) {
	c := New(0)
	e := c.Entry("v", "fp", 1)
	// A peer published a child...
	e.Merge(&Region{{Label: "bs", Down: 1, Right: WindowNone}, {Label: "b", Down: WindowOut, Right: WindowOut}})
	// ...but the producer is a lone leaf.
	d := newDoc(e, nav.NewTreeDoc(xmltree.Elem("bs")))
	root, _ := d.Root()
	child, err := d.Down(root) // hit: served from cache
	if err != nil || child == nil {
		t.Fatalf("down: %v %v", child, err)
	}
	if _, err := d.Down(child); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("navigating below a node the producer cannot reach = %v, want divergence", err)
	}
}

func TestForeignID(t *testing.T) {
	c := New(0)
	e := c.Entry("v", "fp", 1)
	d := newDoc(e, nav.NewTreeDoc(sampleTree()))
	if _, err := d.Down("nonsense"); err == nil {
		t.Fatal("foreign id accepted")
	}
	other := newDoc(e, nav.NewTreeDoc(sampleTree()))
	oroot, _ := other.Root()
	if _, err := d.Down(oroot); err == nil {
		t.Fatal("id of another Doc accepted")
	}
}

func TestConcurrentSessionsConsistent(t *testing.T) {
	c := New(0)
	want := sampleTree()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entry := c.Entry("v", "fp", 1)
			doc := newDoc(entry, nav.NewTreeDoc(sampleTree()))
			root, err := doc.Root()
			if err != nil {
				errs <- err
				return
			}
			got, err := materialize(doc, root)
			if err != nil {
				errs <- err
				return
			}
			if !xmltree.Equal(got, want) {
				errs <- fmt.Errorf("concurrent explore mismatch:\n%s", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func materialize(doc nav.Document, id nav.ID) (*xmltree.Tree, error) {
	label, err := doc.Fetch(id)
	if err != nil {
		return nil, err
	}
	out := &xmltree.Tree{Label: label}
	c, err := doc.Down(id)
	if err != nil {
		return nil, err
	}
	for c != nil {
		kid, err := materialize(doc, c)
		if err != nil {
			return nil, err
		}
		out.Children = append(out.Children, kid)
		c, err = doc.Right(c)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestFingerprintCanonicalAcrossVariablePrefixes(t *testing.T) {
	mk := func(prefix string) algebra.Op {
		return &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "s", Var: prefix + "X"},
			Parent: prefix + "X",
			Path:   pathexpr.MustParse("_"),
			Out:    prefix + "Y",
		}
	}
	fingerprint := func(p algebra.Op) string {
		_, fp, ok := Canonical(p)
		if !ok {
			t.Fatalf("no canonical form for %s", algebra.String(p))
		}
		return fp
	}
	a, b := fingerprint(mk("view1~")), fingerprint(mk("view2~"))
	if a != b {
		t.Fatalf("fingerprints differ:\n%s\n%s", a, b)
	}
	if a == fingerprint(&algebra.Source{URL: "other", Var: "X"}) {
		t.Fatal("distinct plans share a fingerprint")
	}
}

func TestNilCacheWrapPassthrough(t *testing.T) {
	var c *Cache
	inner := nav.NewTreeDoc(sampleTree())
	if got := c.Wrap("v", "fp", 1, inner); got != nav.Document(inner) {
		t.Fatal("nil cache must return the inner document unchanged")
	}
}
