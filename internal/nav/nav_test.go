package nav

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mix/internal/metrics"
	"mix/internal/xmltree"
)

func sampleTree() *xmltree.Tree {
	return xmltree.Elem("homes",
		xmltree.Elem("home", xmltree.Text("addr", "La Jolla"), xmltree.Text("zip", "91220")),
		xmltree.Elem("home", xmltree.Text("addr", "El Cajon"), xmltree.Text("zip", "91223")),
	)
}

func TestTreeDocBasicNavigation(t *testing.T) {
	doc := NewTreeDoc(sampleTree())
	root, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := doc.Fetch(root); l != "homes" {
		t.Fatalf("root label %q", l)
	}
	c1, err := doc.Down(root)
	if err != nil || c1 == nil {
		t.Fatalf("Down: %v %v", c1, err)
	}
	if l, _ := doc.Fetch(c1); l != "home" {
		t.Fatalf("first child %q", l)
	}
	c2, err := doc.Right(c1)
	if err != nil || c2 == nil {
		t.Fatalf("Right: %v %v", c2, err)
	}
	if r3, _ := doc.Right(c2); r3 != nil {
		t.Fatal("no third sibling expected")
	}
	addr, _ := doc.Down(c1)
	leaf, _ := doc.Down(addr)
	if l, _ := doc.Fetch(leaf); l != "La Jolla" {
		t.Fatalf("leaf label %q", l)
	}
	if d, _ := doc.Down(leaf); d != nil {
		t.Fatal("down on leaf must be nil")
	}
}

func TestTreeDocForeignID(t *testing.T) {
	doc := NewTreeDoc(sampleTree())
	if _, err := doc.Down("bogus"); err == nil {
		t.Fatal("expected foreign id error")
	}
	if _, err := doc.Fetch(nil); err == nil {
		t.Fatal("expected foreign id error for nil")
	}
	if _, err := doc.Right(42); err == nil {
		t.Fatal("expected foreign id error")
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	orig := sampleTree()
	got, err := Materialize(NewTreeDoc(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(orig, got) {
		t.Fatalf("materialize mismatch: %v vs %v", orig, got)
	}
}

func TestQuickMaterializeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 4)
		got, err := Materialize(NewTreeDoc(tr))
		return err == nil && xmltree.Equal(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func randomTree(r *rand.Rand, depth int) *xmltree.Tree {
	labels := []string{"a", "b", "home", "zip"}
	t := &xmltree.Tree{Label: labels[r.Intn(len(labels))]}
	if depth <= 0 || r.Intn(3) == 0 {
		return t
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		t.Children = append(t.Children, randomTree(r, depth-1))
	}
	return t
}

func TestExploreFirst(t *testing.T) {
	doc := NewTreeDoc(sampleTree())
	got, err := ExploreFirst(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Children) != 2 {
		t.Fatalf("want explored child + hole, got %v", got)
	}
	if !got.Children[1].IsHole() {
		t.Fatalf("want trailing hole, got %v", got.Children[1])
	}
	if got.Children[0].Find("addr").TextContent() != "La Jolla" {
		t.Fatalf("explored part wrong: %v", got.Children[0])
	}

	all, err := ExploreFirst(doc, 10)
	if err != nil {
		t.Fatal(err)
	}
	if all.IsOpen() {
		t.Fatalf("k beyond size must be closed: %v", all)
	}
	if !xmltree.Equal(all, sampleTree()) {
		t.Fatalf("full exploration mismatch")
	}
}

func TestLabels(t *testing.T) {
	doc := NewTreeDoc(xmltree.Elem("r", xmltree.Leaf("a"), xmltree.Leaf("b"), xmltree.Leaf("c")))
	got, err := Labels(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Labels = %v", got)
	}
	got, _ = Labels(doc, 99)
	if len(got) != 3 {
		t.Fatalf("Labels overrun = %v", got)
	}
}

func TestPath(t *testing.T) {
	doc := NewTreeDoc(sampleTree())
	p, err := Path(doc, "home", "zip")
	if err != nil || p == nil {
		t.Fatalf("Path: %v %v", p, err)
	}
	sub, err := Subtree(doc, p)
	if err != nil {
		t.Fatal(err)
	}
	if sub.TextContent() != "91220" {
		t.Fatalf("Path landed on %v", sub)
	}
	if p, _ := Path(doc, "home", "nope"); p != nil {
		t.Fatal("missing path should be nil")
	}
	if p, _ := Path(doc, "school"); p != nil {
		t.Fatal("missing first component should be nil")
	}
}

func TestSelectFallbackAndNative(t *testing.T) {
	doc := NewTreeDoc(xmltree.Elem("r",
		xmltree.Leaf("a"), xmltree.Leaf("b"), xmltree.Leaf("a"), xmltree.Leaf("c")))
	root, _ := doc.Root()
	first, _ := doc.Down(root)

	// fromSelf=true finds the current node when it matches.
	p, err := Select(doc, first, LabelIs("a"), true)
	if err != nil || p == nil {
		t.Fatalf("select fromSelf: %v %v", p, err)
	}
	// fromSelf=false skips it and finds the later "a".
	p2, err := Select(doc, first, LabelIs("a"), false)
	if err != nil || p2 == nil {
		t.Fatalf("select: %v %v", p2, err)
	}
	if l, _ := doc.Fetch(p2); l != "a" {
		t.Fatalf("selected %q", l)
	}
	if same, _ := Select(doc, p2, LabelIs("a"), false); same != nil {
		t.Fatal("no further a expected")
	}
	if none, _ := Select(doc, first, LabelIs("zzz"), true); none != nil {
		t.Fatal("no match expected")
	}
}

func TestCountingDoc(t *testing.T) {
	cd := NewCountingDoc(NewTreeDoc(sampleTree()))
	if _, err := Materialize(cd); err != nil {
		t.Fatal(err)
	}
	s := cd.Counters.Snapshot()
	// 11 nodes: 11 fetches, 11 downs (one per node), right called once per child.
	if s.Fetch != 11 {
		t.Fatalf("Fetch = %d, want 11", s.Fetch)
	}
	if s.Down != 11 {
		t.Fatalf("Down = %d, want 11", s.Down)
	}
	if s.Root != 1 {
		t.Fatalf("Root = %d", s.Root)
	}
	if s.Navigations() != s.Down+s.Right+s.Fetch+s.Select+s.Root {
		t.Fatal("Navigations arithmetic")
	}
	before := cd.Counters.Snapshot()
	if _, err := Labels(cd, 1); err != nil {
		t.Fatal(err)
	}
	delta := cd.Counters.Snapshot().Sub(before)
	// root + down + fetch + trailing right = 4 commands for the first label.
	if delta.Navigations() != 4 {
		t.Fatalf("window delta = %v", delta)
	}
}

// noSelect hides a Document's native Selector implementation, modeling
// a source whose command set is only NC = {d, r, f}.
type noSelect struct{ d Document }

func (n noSelect) Root() (ID, error)          { return n.d.Root() }
func (n noSelect) Down(p ID) (ID, error)      { return n.d.Down(p) }
func (n noSelect) Right(p ID) (ID, error)     { return n.d.Right(p) }
func (n noSelect) Fetch(p ID) (string, error) { return n.d.Fetch(p) }

func TestCountingSelectScanBilling(t *testing.T) {
	// Without native Selector support, select(σ) is billed as r/f hops.
	cd := NewCountingDoc(noSelect{d: NewTreeDoc(xmltree.Elem("r",
		xmltree.Leaf("x"), xmltree.Leaf("x"), xmltree.Leaf("a")))})
	root, _ := cd.Root()
	first, _ := cd.Down(root)
	cd.Counters.Reset()
	p, err := cd.SelectRight(first, LabelIs("a"), true)
	if err != nil || p == nil {
		t.Fatalf("select: %v %v", p, err)
	}
	s := cd.Counters.Snapshot()
	if s.Select != 0 {
		t.Fatal("hidden selector; should be billed as scan")
	}
	if s.Fetch != 3 || s.Right != 2 {
		t.Fatalf("scan billing f=%d r=%d, want 3/2", s.Fetch, s.Right)
	}
}

// TestCountingSelectRightScans: a direct SelectRight on a CountingDoc
// over a document without native select bills each r and f hop of the
// scan, no select, and returns what Select on the bare document does.
func TestCountingSelectRightScans(t *testing.T) {
	bare := noSelect{d: NewTreeDoc(xmltree.Elem("r",
		xmltree.Leaf("x"), xmltree.Leaf("x"), xmltree.Leaf("a"), xmltree.Leaf("x")))}
	root, _ := bare.Root()
	kids := []ID{}
	for k, _ := bare.Down(root); k != nil; k, _ = bare.Right(k) {
		kids = append(kids, k)
	}
	// Each case is a select(σ) from child from, with the r and f
	// commands its r/f scan issues.
	for _, c := range []struct {
		name     string
		from     int
		label    string
		fromSelf bool
		r, f     int64
	}{
		{"found, from self", 0, "a", true, 2, 3},
		{"found, after self", 0, "a", false, 2, 2},
		{"not found", 0, "zzz", true, 4, 4},
		{"after the last", 3, "x", false, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := Select(bare, kids[c.from], LabelIs(c.label), c.fromSelf)
			if err != nil {
				t.Fatal(err)
			}
			cd := NewCountingDoc(bare)
			got, err := cd.SelectRight(kids[c.from], LabelIs(c.label), c.fromSelf)
			if err != nil || got != want {
				t.Fatalf("SelectRight = %v, %v; Select on the bare document = %v", got, err, want)
			}
			if s := cd.Counters.Snapshot(); s.Select != 0 || s.Right != c.r || s.Fetch != c.f {
				t.Fatalf("billed select=%d r=%d f=%d, want 0/%d/%d", s.Select, s.Right, s.Fetch, c.r, c.f)
			}
		})
	}
}

func TestSelectorOfProbes(t *testing.T) {
	tree := NewTreeDoc(xmltree.Elem("r", xmltree.Leaf("a")))
	if s, ok := SelectorOf(tree); !ok || s == nil {
		t.Fatal("TreeDoc should answer select natively")
	}
	if _, ok := SelectorOf(noSelect{d: tree}); ok {
		t.Fatal("noSelect hides the selector")
	}
	// Wrappers forward the question instead of answering it themselves.
	if s, ok := SelectorOf(NewCountingDoc(tree)); !ok || s == nil {
		t.Fatal("CountingDoc over a native selector should stay native")
	}
	if _, ok := SelectorOf(NewCountingDoc(noSelect{d: tree})); ok {
		t.Fatal("CountingDoc over a non-native doc should not report native")
	}
}

// TestCountingNestedWrapperSelectBilling pins the wrapper-of-wrapper
// case: the outer CountingDoc sees an inner document that *implements*
// Selector (the inner CountingDoc) but does not answer select natively,
// so the scan must be billed hop by hop at both boundaries rather than
// as one select command.
func TestCountingNestedWrapperSelectBilling(t *testing.T) {
	inner := NewCountingDoc(noSelect{d: NewTreeDoc(xmltree.Elem("r",
		xmltree.Leaf("x"), xmltree.Leaf("x"), xmltree.Leaf("a")))})
	outer := &CountingDoc{Doc: inner, Counters: &metrics.Counters{}}
	root, _ := outer.Root()
	first, _ := outer.Down(root)
	outer.Counters.Reset()
	inner.Counters.Reset()
	p, err := outer.SelectRight(first, LabelIs("a"), true)
	if err != nil || p == nil {
		t.Fatalf("select: %v %v", p, err)
	}
	for name, s := range map[string]metrics.Snapshot{
		"outer": outer.Counters.Snapshot(), "inner": inner.Counters.Snapshot(),
	} {
		if s.Select != 0 {
			t.Fatalf("%s billed a native select through a non-native chain", name)
		}
		if s.Fetch != 3 || s.Right != 2 {
			t.Fatalf("%s scan billing f=%d r=%d, want 3/2", name, s.Fetch, s.Right)
		}
	}
}

func TestEquivalent(t *testing.T) {
	a := NewTreeDoc(sampleTree())
	b := NewTreeDoc(sampleTree())
	eq, err := Equivalent(a, b)
	if err != nil || !eq {
		t.Fatalf("Equivalent: %v %v", eq, err)
	}
	c := NewTreeDoc(xmltree.Elem("other"))
	eq, err = Equivalent(a, c)
	if err != nil || eq {
		t.Fatalf("Equivalent should be false: %v %v", eq, err)
	}
}

func TestSelectGenericScanPath(t *testing.T) {
	// nav.Select over a Document without native Selector support takes
	// the r/f scan path.
	doc := noSelect{d: NewTreeDoc(xmltree.Elem("r",
		xmltree.Leaf("x"), xmltree.Leaf("a"), xmltree.Leaf("x"), xmltree.Leaf("a")))}
	root, _ := doc.Root()
	first, _ := doc.Down(root)
	p, err := Select(doc, first, LabelIs("a"), true)
	if err != nil || p == nil {
		t.Fatalf("scan select: %v %v", p, err)
	}
	if l, _ := doc.Fetch(p); l != "a" {
		t.Fatalf("selected %q", l)
	}
	p2, err := Select(doc, p, LabelIs("a"), false)
	if err != nil || p2 == nil {
		t.Fatalf("second select: %v %v", p2, err)
	}
	if none, _ := Select(doc, p2, LabelIs("zzz"), false); none != nil {
		t.Fatal("miss should be nil")
	}
}

func TestTreeDocSelectRightAtRoot(t *testing.T) {
	doc := NewTreeDoc(xmltree.Elem("r"))
	root, _ := doc.Root()
	p, err := doc.SelectRight(root, LabelIs("r"), true)
	if err != nil || p == nil {
		t.Fatalf("root fromSelf: %v %v", p, err)
	}
	p, err = doc.SelectRight(root, LabelIs("r"), false)
	if err != nil || p != nil {
		t.Fatalf("root has no siblings: %v %v", p, err)
	}
	if _, err := doc.SelectRight("bogus", LabelIs("r"), true); err == nil {
		t.Fatal("foreign id should error")
	}
}

func TestTreeDocTreeAccessor(t *testing.T) {
	orig := sampleTree()
	doc := NewTreeDoc(orig)
	root, _ := doc.Root()
	if got := doc.ClosedTree(root); got != orig {
		t.Fatalf("ClosedTree(root) = %v, want the document's own tree", got)
	}
	if got := doc.ClosedTree(42); got != nil {
		t.Fatalf("ClosedTree of a foreign id = %v, want nil", got)
	}
}

// cyclicDoc is a pathological virtual document whose every node has a
// child — an infinite tree. Materialize must detect it.
type cyclicDoc struct{}

func (cyclicDoc) Root() (ID, error)        { return 0, nil }
func (cyclicDoc) Down(p ID) (ID, error)    { return p.(int) + 1, nil }
func (cyclicDoc) Right(ID) (ID, error)     { return nil, nil }
func (cyclicDoc) Fetch(ID) (string, error) { return "n", nil }

func TestMaterializeDepthGuard(t *testing.T) {
	if _, err := Materialize(cyclicDoc{}); err == nil {
		t.Fatal("unbounded document must be rejected")
	}
	if _, err := ExploreFirst(cyclicDoc{}, 1); err == nil {
		t.Fatal("unbounded document must be rejected in ExploreFirst")
	}
}

func TestCountingSelectNativePath(t *testing.T) {
	cd := NewCountingDoc(NewTreeDoc(xmltree.Elem("r", xmltree.Leaf("x"), xmltree.Leaf("a"))))
	root, _ := cd.Root()
	first, _ := cd.Down(root)
	cd.Counters.Reset()
	p, err := Select(cd, first, LabelIs("a"), true)
	if err != nil || p == nil {
		t.Fatalf("native select: %v %v", p, err)
	}
	if cd.Counters.Select.Load() != 1 {
		t.Fatalf("native select count = %d", cd.Counters.Select.Load())
	}
}
