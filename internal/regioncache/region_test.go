package regioncache

import (
	"slices"
	"strings"
	"testing"

	"mix/internal/nav"
	"mix/internal/xmltree"
)

// TestKeyOverheadAccounting: key strings are pooled — each entry is
// charged only the fixed key overhead against the eviction budget,
// while name/fingerprint content is charged once per *distinct* held
// string to the pool (Stats.InternedBytes), and drop accounting stays
// exactly symmetric with creation, for the pool too.
func TestKeyOverheadAccounting(t *testing.T) {
	c := New(0)
	name, fp := "homeview", strings.Repeat("S0:p(v0,v1)|", 20)
	e := c.Entry(name, fp, 1)
	want := int64(nodeBytes) + keyFixedBytes
	wantIntern := int64(len(name) + len(fp))
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("bytes after bare entry = %d, want %d (node %d + key fixed %d; strings interned)",
			got, want, nodeBytes, keyFixedBytes)
	}
	if got := c.Stats().InternedBytes; got != wantIntern {
		t.Fatalf("interned bytes = %d, want %d", got, wantIntern)
	}
	// A second entry with a longer key costs the same fixed overhead;
	// only the new fingerprint's content lands in the pool (the shared
	// name is already there).
	fp2 := fp + strings.Repeat("x", 1000)
	c.Entry(name, fp2, 1)
	want += int64(nodeBytes) + keyFixedBytes
	wantIntern += int64(len(fp2))
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("bytes after second entry = %d, want %d", got, want)
	}
	if got := c.Stats().InternedBytes; got != wantIntern {
		t.Fatalf("interned bytes after second entry = %d, want %d", got, wantIntern)
	}
	// Re-opening the same keys interns nothing new.
	c.Entry(name, fp, 1)
	if got := c.Stats().InternedBytes; got != wantIntern {
		t.Fatalf("interned bytes grew on re-open: %d, want %d", got, wantIntern)
	}
	// Dropping everything returns the budget and the pool to exactly
	// zero: creation accounting and drop accounting are symmetric.
	c.Invalidate()
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("bytes after invalidate = %d, want 0", got)
	}
	if got := c.Stats().InternedBytes; got != 0 {
		t.Fatalf("interned bytes after invalidate = %d, want 0", got)
	}
	_ = e
}

// TestKeyOverheadDrivesEviction: entries whose *keys* dominate their
// size must still respect the byte budget — a cache fed thousands of
// long-fingerprint entries with empty trees stays bounded.
func TestKeyOverheadDrivesEviction(t *testing.T) {
	const budget = 64 << 10
	c := New(budget)
	fpBase := strings.Repeat("f", 1024)
	for i := 0; i < 1000; i++ {
		c.Entry("v", fpBase+string(rune('a'+i%26))+string(rune('a'+i/26%26))+string(rune('a'+i/676)), 1)
	}
	st := c.Stats()
	// One entry may be admitted over budget before eviction catches up.
	slack := int64(nodeBytes + keyFixedBytes + len(fpBase) + 8)
	if st.Bytes > budget+slack {
		t.Fatalf("bytes = %d exceeds budget %d (+%d slack); key overhead not evicting", st.Bytes, budget, slack)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 1000 long-key entries against a 64KiB budget")
	}
}

// stubID stands for a producer's node-id in entries no Doc navigates.
var stubID nav.ID = "stub"

func buildEntry(c *Cache) *Entry {
	e := c.Entry("v", "fp", 1)
	// <a> <b> x y </b> <c/> ... </a> with the ... frontier unknown.
	e.storeLabel(nil, "a")
	e.storeChild(nil, 0, stubID)
	e.storeLabel([]int{0}, "b")
	e.storeChild([]int{0}, 0, stubID)
	e.storeLabel([]int{0, 0}, "x")
	e.storeChild([]int{0}, 1, stubID)
	e.storeLabel([]int{0, 1}, "y")
	e.storeChild([]int{0}, 2, nil) // b complete
	e.storeChild(nil, 1, stubID)
	e.storeLabel([]int{1}, "c")
	return e
}

// cloneNode deep-copies the cached tree under n.
func cloneNode(n *cnode) *cnode {
	c := &cnode{label: n.label, labelKnown: n.labelKnown, complete: n.complete}
	for _, k := range n.kids {
		c.kids = append(c.kids, cloneNode(k))
	}
	return c
}

// extends reports whether a knows everything b knows: b's known labels,
// at least b's known child prefixes, b's complete child lists whole.
func extends(a, b *cnode) bool {
	if b.labelKnown && (!a.labelKnown || a.label != b.label) ||
		b.complete && (!a.complete || len(a.kids) != len(b.kids)) ||
		len(a.kids) < len(b.kids) {
		return false
	}
	for i, k := range b.kids {
		if !extends(a.kids[i], k) {
			return false
		}
	}
	return true
}

// TestRegionExportMergeRoundTrip: Export then Merge reproduces the
// exact region — the identity the L2 wire protocol depends on.
func TestRegionExportMergeRoundTrip(t *testing.T) {
	c := New(0)
	src := buildEntry(c)
	reg := src.Export()
	if reg.Empty() {
		t.Fatal("export of a populated entry is empty")
	}

	c2 := New(0)
	dst := c2.Entry("v", "fp", 1)
	dst.Merge(reg)
	if !extends(dst.root, src.root) || !extends(src.root, dst.root) {
		t.Fatalf("merge(export(e)) ≠ e")
	}
	if got := dst.Export(); !slices.Equal(*got, *reg) {
		t.Fatalf("export(merge(export(e))) = %+v, want %+v", *got, *reg)
	}
	// Merged labels must actually serve lookups.
	if l, ok := dst.lookupLabel([]int{0, 1}); !ok || l != "y" {
		t.Fatalf("lookupLabel after merge = %q, %v", l, ok)
	}
	if ok, known := dst.lookupChild([]int{0}, 2); !known || ok {
		t.Fatal("completeness bit lost in round trip")
	}
	if ok, known := dst.lookupChild(nil, 2); known {
		t.Fatalf("root child 2 known after round trip (exists %v); the root's list is open", ok)
	}
}

// TestMergeOnlyExtends: merging a sparser or contradicting region into a
// fuller entry must never erase labels, shrink child prefixes, or clear
// the completeness bit — remote data can only add knowledge.
func TestMergeOnlyExtends(t *testing.T) {
	c := New(0)
	e := buildEntry(c)
	before := cloneNode(e.root)
	for _, r := range []Region{{
		{Label: "WRONG", Down: 1, Right: WindowNone},
		// b: no children, and the root's last child.
		{Unknown: true, Down: WindowNone, Right: WindowNone},
	}, {
		{Label: "a", Down: 1, Right: WindowNone},
		{Label: "b", Down: 2, Right: WindowOut},
		// b's children x, y, then a third b knows it does not have.
		{Label: "x", Down: WindowOut, Right: 3},
		{Label: "y", Down: WindowOut, Right: 4},
		{Label: "z", Down: WindowNone, Right: WindowNone},
	}} {
		e.Merge(&r)
		if !extends(e.root, before) || !extends(before, e.root) {
			t.Fatalf("merging %+v changed the entry; now %+v", r, *e.Export())
		}
	}
	if e.Mutations() == 0 {
		t.Fatal("building the entry never bumped Mutations")
	}
}

// TestMergeDeepChain: a pathologically deep (or adversarial) region
// merges in one pass without recursing — no stack blowout and no
// quadratic climb from a malicious peer, whatever its links say.
func TestMergeDeepChain(t *testing.T) {
	const depth = 1 << 16
	chain := func(right int32) *Region {
		r := make(Region, depth)
		for i := range r {
			r[i] = WindowNode{Label: "d", Down: int32(i + 1), Right: right}
		}
		r[0].Label, r[depth-1].Down = "d0", WindowNone
		return &r
	}
	for _, right := range []int32{WindowNone, WindowOut, 0, 1} {
		e := New(0).Entry("v", "fp", 1)
		e.Merge(chain(right))
		n, got := e.root, 1
		for ; len(n.kids) == 1; got++ {
			n = n.kids[0]
		}
		if got != depth || !n.complete || e.root.label != "d0" {
			t.Fatalf("Right %d: merged a chain of %d nodes (leaf complete %v, root %q), want %d",
				right, got, n.complete, e.root.label, depth)
		}
		if right == WindowNone && !e.Complete() || right != WindowNone && e.root.kids[0].complete {
			t.Fatalf("Right %d: a child list's end merged wrong", right)
		}
	}
}

// TestMutationsCounter: region-extending writes bump Mutations, reads
// and re-writes of known data do not — the flusher's dirtiness signal.
func TestMutationsCounter(t *testing.T) {
	c := New(0)
	e := c.Entry("v", "fp", 1)
	if e.Mutations() != 0 {
		t.Fatalf("fresh entry has %d mutations", e.Mutations())
	}
	e.storeLabel(nil, "a")
	m1 := e.Mutations()
	if m1 == 0 {
		t.Fatal("storeLabel did not bump Mutations")
	}
	e.lookupLabel(nil)
	e.storeLabel(nil, "a") // already known: no new knowledge
	if e.Mutations() != m1 {
		t.Fatalf("re-storing a known label bumped Mutations %d -> %d", m1, e.Mutations())
	}
	e.storeChild(nil, 0, stubID)
	if e.Mutations() == m1 {
		t.Fatal("storeChild did not bump Mutations")
	}
	// A merged region is a peer's knowledge, not local growth: it grows
	// the entry, once, and leaves Mutations where it was.
	m2 := e.Mutations()
	reg := &Region{{Label: "a", Down: 1, Right: WindowNone}, {Label: "b", Down: WindowNone, Right: WindowNone}}
	if !e.Merge(reg) || e.Merge(reg) {
		t.Fatal("Merge should report growth exactly once")
	}
	if e.Mutations() != m2 {
		t.Fatalf("merging a peer region bumped Mutations %d -> %d", m2, e.Mutations())
	}
}

// TestAbsorb: peer-published regions merge into the live entry only
// under the current generation; stale-generation puts are dropped and
// create nothing.
func TestAbsorb(t *testing.T) {
	c := New(0)
	reg := &Region{{Label: "a", Down: WindowNone, Right: WindowNone}}
	k := Key{Generation: 0, Registry: 1, Name: "v", Fingerprint: "fp"}
	if !c.Absorb(k, reg) {
		t.Fatal("absorb at current generation rejected")
	}
	e := c.Peek(k)
	if e == nil {
		t.Fatal("absorb did not create the entry")
	}
	if !slices.Equal(*e.Export(), *reg) {
		t.Fatal("absorbed region differs")
	}

	c.Invalidate() // generation 1; the gen-0 entry is swept
	if c.Peek(k) != nil {
		t.Fatal("stale entry survived invalidation")
	}
	if c.Absorb(k, reg) {
		t.Fatal("absorb of a stale-generation region accepted")
	}
	if c.Peek(k) != nil {
		t.Fatal("stale absorb left an entry behind")
	}
	if c.Absorb(Key{Generation: 1, Registry: 1, Name: "v", Fingerprint: "fp"}, reg) != true {
		t.Fatal("absorb at the new generation rejected")
	}
}

// TestRegionBuilder: a region read by index and rebuilt tree-wise from
// copies of its subtrees merges into a complete entry holding exactly
// the built tree.
func TestRegionBuilder(t *testing.T) {
	src := New(0).Entry("v", "src", 1)
	explore(t, newDoc(src, nav.NewTreeDoc(xmltree.Elem("bs",
		xmltree.Elem("b", xmltree.Elem("x", xmltree.Leaf("1"))),
		xmltree.Elem("b", xmltree.Elem("x", xmltree.Leaf("1"))),
		xmltree.Elem("b", xmltree.Elem("y", xmltree.Leaf("2")))))))
	r := src.Export()
	// Window order: bs 0, b 1, x 2, 1 3, b 4, x 5, 1 6, b 7, y 8, 2 9.
	if r.Child(0) != 1 || r.Next(1) != 4 || r.Next(7) != -1 || r.Child(3) != -1 || r.Label(8) != "y" {
		t.Fatalf("links of %+v", *r)
	}
	for _, c := range []struct {
		i, j int
		want bool
	}{{1, 4, true}, {2, 5, true}, {1, 7, false}, {3, 9, false}, {2, 3, false}} {
		if got := r.Equal(c.i, c.j); got != c.want {
			t.Errorf("Equal(%d, %d) = %v, want %v", c.i, c.j, got, c.want)
		}
	}
	if got := r.Subtree(7); !xmltree.Equal(got, xmltree.Elem("b", xmltree.Elem("y", xmltree.Leaf("2")))) {
		t.Fatalf("Subtree(7) = %v", got)
	}

	var b RegionBuilder
	b.Open("out")
	b.Copy(r, 7)
	b.Copy(r, 1)
	b.Open("z")
	b.Copy(r, 3)
	b.Close()
	b.Open("e")
	b.Close()
	b.Close()
	dst := New(0).Entry("v", "dst", 1)
	dst.Merge(b.Region())
	if !dst.Complete() {
		t.Fatalf("built region %+v merged incomplete", *b.Region())
	}
	want := xmltree.Elem("out",
		xmltree.Elem("b", xmltree.Elem("y", xmltree.Leaf("2"))),
		xmltree.Elem("b", xmltree.Elem("x", xmltree.Leaf("1"))),
		xmltree.Elem("z", xmltree.Leaf("1")),
		xmltree.Leaf("e"))
	unused := nav.NewCountingDoc(nav.NewTreeDoc(want))
	if got := explore(t, newDoc(dst, unused)); !xmltree.Equal(got, want) || unused.Counters.Navigations() != 0 {
		t.Fatalf("built entry reads %v after %d producer navigations, want %v from the entry alone",
			got, unused.Counters.Navigations(), want)
	}
}
