package regioncache

import (
	"fmt"
	"slices"
	"sync"
	"testing"

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
	got := explore(t, NewDoc(entry, cold))
	if !xmltree.Equal(got, sampleTree()) {
		t.Fatalf("cold explore mismatch:\n%s", got)
	}
	if cold.Counters.Navigations() == 0 {
		t.Fatal("cold session performed no inner navigations")
	}

	// A second session over the same entry: every command is a hit.
	warm := nav.NewCountingDoc(nav.NewTreeDoc(sampleTree()))
	got2 := explore(t, NewDoc(entry, warm))
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

	// Session 1 explores only the first b element.
	d1 := NewDoc(entry, nav.NewTreeDoc(sampleTree()))
	root, _ := d1.Root()
	b1, _ := d1.Down(root)
	h1, _ := d1.Down(b1)
	if l, _ := d1.Fetch(h1); l != "home" {
		t.Fatalf("fetch = %q", l)
	}

	// Session 2 walks past the cached frontier; the inner doc is only
	// consulted where the cache runs out.
	warm := nav.NewCountingDoc(nav.NewTreeDoc(sampleTree()))
	d2 := NewDoc(entry, warm)
	root2, _ := d2.Root()
	b, _ := d2.Down(root2)                 // hit
	h, _ := d2.Down(b)                     // hit
	if _, err := d2.Fetch(h); err != nil { // hit
		t.Fatal(err)
	}
	if n := warm.Counters.Navigations(); n != 0 {
		t.Fatalf("within cached region: %d inner navigations, want 0", n)
	}
	sib, err := d2.Right(h) // miss: resolve h (root+d) + one r
	if err != nil || sib == nil {
		t.Fatalf("right: %v %v", sib, err)
	}
	if warm.Counters.Right.Load() != 1 {
		t.Fatalf("frontier Right billed %d inner r, want 1", warm.Counters.Right.Load())
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
	d1 := NewDoc(old, nav.NewTreeDoc(sampleTree()))
	explore(t, d1)
	hot := c.Entry("hot", "fp", 1)
	d2 := NewDoc(hot, nav.NewTreeDoc(sampleTree()))
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

func TestMergeTreeSkipsHolesAndRightSiblings(t *testing.T) {
	c := New(0)
	e := c.Entry("v", "fp", 1)
	open := xmltree.Elem("bs",
		xmltree.Elem("b", xmltree.Elem("home", xmltree.Leaf("h1"))),
		xmltree.Hole("h"),
		xmltree.Elem("b", xmltree.Elem("home", xmltree.Leaf("h2"))),
	)
	e.MergeTree(open)

	// The prefix before the hole is merged...
	if ok, known := e.lookupChild(nil, 0); !ok || !known {
		t.Fatal("first child not merged")
	}
	if l, ok := e.lookupLabel([]int{0, 0, 0}); !ok || l != "h1" {
		t.Fatalf("deep label = %q %v", l, ok)
	}
	// ...the hole and everything right of it are not (indices unstable).
	if _, known := e.lookupChild(nil, 1); known {
		t.Fatal("child at the hole position merged")
	}
	// A hole-free child list is complete.
	if ok, known := e.lookupChild([]int{0}, 1); ok || !known {
		t.Fatalf("complete child list: ok=%v known=%v, want absent+known", ok, known)
	}
}

// TestExportRendersOpenTree: an export renders an incomplete child list
// as a link past the region (WindowOut), a node whose label is known but
// whose children are not with Down = WindowOut.
func TestExportRendersOpenTree(t *testing.T) {
	c := New(0)
	e := c.Entry("v", "fp", 1)
	d := NewDoc(e, nav.NewTreeDoc(sampleTree()))
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
	// The cache knows a child exists...
	e.storeChild(nil, 0, true)
	// ...but the session's own document is a lone leaf.
	d := NewDoc(e, nav.NewTreeDoc(xmltree.Elem("bs")))
	root, _ := d.Root()
	child, err := d.Down(root) // hit: served from cache
	if err != nil || child == nil {
		t.Fatalf("down: %v %v", child, err)
	}
	if _, err := d.Fetch(child); err == nil {
		t.Fatal("fetching a node the engine cannot produce should report divergence")
	}
}

func TestForeignID(t *testing.T) {
	c := New(0)
	e := c.Entry("v", "fp", 1)
	d := NewDoc(e, nav.NewTreeDoc(sampleTree()))
	if _, err := d.Down("nonsense"); err == nil {
		t.Fatal("foreign id accepted")
	}
	other := NewDoc(e, nav.NewTreeDoc(sampleTree()))
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
			doc := NewDoc(entry, nav.NewTreeDoc(sampleTree()))
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

// TestPathKey pins the rendering error messages print and the one
// allocation a key costs.
func TestPathKey(t *testing.T) {
	for _, c := range []struct {
		path []int
		want string
	}{{nil, ""}, {[]int{0}, "/0"}, {[]int{0, 3, 12}, "/0/3/12"}} {
		if got := pathKey(c.path); got != c.want {
			t.Fatalf("pathKey(%v) = %q, want %q", c.path, got, c.want)
		}
	}
	path := []int{0, 3, 12, 7, 1024}
	if n := testing.AllocsPerRun(100, func() { _ = pathKey(path) }); n > 1 {
		t.Fatalf("pathKey allocates %v times, want 1", n)
	}
}
