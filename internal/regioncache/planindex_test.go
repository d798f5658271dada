package regioncache

import (
	"fmt"
	"slices"
	"testing"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/xmas"
	"mix/internal/xmltree"
)

// planFor builds a distinct small canonical plan per label, as the
// engine indexes it: the XMAS construct grouping the source's label
// children, canonicalized. Plans of one label contain each other;
// plans of two labels do not.
func planFor(label string) algebra.Op {
	q, err := xmas.Parse(`CONSTRUCT <r> $X {$X} </r> {} WHERE s s.` + label + ` $X`)
	if err != nil {
		panic(err)
	}
	p, err := q.Translate()
	if err != nil {
		panic(err)
	}
	canon, _, ok := Canonical(p)
	if !ok {
		panic("planFor: no canonical form")
	}
	return canon
}

func TestPlanIndexCandidates(t *testing.T) {
	c := New(0)
	k := func(fp string) Key { return Key{Generation: 0, Registry: 1, Name: "v", Fingerprint: fp} }
	c.IndexPlan(k("fp1"), planFor("a"))
	c.IndexPlan(k("fp2"), planFor("b"))
	c.IndexPlan(k("fp1"), planFor("a")) // duplicate fingerprint: dropped

	if got := c.candidates(k("fp1"), nil); len(got) != 1 || got[0].key.Fingerprint != "fp2" {
		t.Fatalf("candidates for fp1 = %+v, want exactly fp2 (self excluded, no dup)", got)
	}
	// Other registry versions and other view names see nothing.
	if got := c.candidates(Key{Generation: 0, Registry: 2, Name: "v", Fingerprint: "fp1"}, nil); len(got) != 0 {
		t.Fatalf("cross-registry candidates = %+v, want none", got)
	}
	if got := c.candidates(Key{Generation: 0, Registry: 1, Name: "w", Fingerprint: "fp1"}, nil); len(got) != 0 {
		t.Fatalf("cross-view candidates = %+v, want none", got)
	}
	// A fingerprint not itself indexed still sees the bucket.
	if got := c.candidates(k("fp3"), nil); len(got) != 2 {
		t.Fatalf("candidates for unindexed fp = %d plans, want 2", len(got))
	}
}

func TestPlanIndexBucketBound(t *testing.T) {
	c := New(0)
	for i := 0; i < maxPlansPerBucket+10; i++ {
		fp := fmt.Sprintf("fp%02d", i)
		c.IndexPlan(Key{Registry: 1, Name: "v", Fingerprint: fp}, planFor("a"))
	}
	got := c.candidates(Key{Registry: 1, Name: "v", Fingerprint: "none"}, nil)
	if len(got) != maxPlansPerBucket {
		t.Fatalf("bucket holds %d plans, want capped at %d", len(got), maxPlansPerBucket)
	}
}

func TestPlanIndexGenerations(t *testing.T) {
	c := New(0)
	// Stale-generation inserts are dropped outright.
	c.IndexPlan(Key{Generation: 5, Registry: 1, Name: "v", Fingerprint: "old"}, planFor("a"))
	if got := c.candidates(Key{Generation: 5, Registry: 1, Name: "v", Fingerprint: "x"}, nil); len(got) != 0 {
		t.Fatalf("stale-generation plan was indexed: %+v", got)
	}
	c.IndexPlan(Key{Generation: 0, Registry: 1, Name: "v", Fingerprint: "cur"}, planFor("a"))
	// Invalidation advances the generation and prunes dead buckets.
	c.Invalidate()
	if got := c.candidates(Key{Generation: 0, Registry: 1, Name: "v", Fingerprint: "x"}, nil); len(got) != 0 {
		t.Fatalf("pre-invalidation bucket survived: %+v", got)
	}
	c.IndexPlan(Key{Generation: 1, Registry: 1, Name: "v", Fingerprint: "cur"}, planFor("a"))
	if got := c.candidates(Key{Generation: 1, Registry: 1, Name: "v", Fingerprint: "x"}, nil); len(got) != 1 {
		t.Fatalf("current-generation index broken after invalidate: %+v", got)
	}
}

// walk navigates d from id by ops ('d' down, 'r' right), fetching
// the label of every node it lands on, and returns the last node (nil
// once a step finds none).
func walk(t *testing.T, d nav.Document, id nav.ID, ops string) nav.ID {
	t.Helper()
	var err error
	for _, op := range ops {
		if op == 'd' {
			id, err = d.Down(id)
		} else {
			id, err = d.Right(id)
		}
		if err != nil {
			t.Fatalf("%c: %v", op, err)
		}
		if id == nil {
			return nil
		}
		if _, err = d.Fetch(id); err != nil {
			t.Fatalf("fetch: %v", err)
		}
	}
	return id
}

// TestRegionKnown: a region is known when its whole subtree is
// complete — a known child list with unexplored grandchildren is not
// enough — and past the end of the answer only once the top-level child
// list is complete.
func TestRegionKnown(t *testing.T) {
	e := New(0).Entry("v", "fp", 1)
	d := newDoc(e, nav.NewTreeDoc(xmltree.Elem("a",
		xmltree.Elem("r0", xmltree.Leaf("x"), xmltree.Leaf("y")),
		xmltree.Elem("r1", xmltree.Leaf("p")),
		xmltree.Leaf("r2"))))
	root, _ := d.Root()
	d.Fetch(root)
	r0 := walk(t, d, root, "d")
	walk(t, d, r0, "dd")  // x has no children
	walk(t, d, r0, "drd") // nor has y
	walk(t, d, r0, "drr") // and y is r0's last child
	r1 := walk(t, d, r0, "r")
	p := walk(t, d, r1, "d") // p's own children unknown
	walk(t, d, p, "r")
	r2 := walk(t, d, r1, "r") // its child list unknown
	check := func(region int, want bool) {
		t.Helper()
		if got := e.RegionKnown(region); got != want {
			t.Fatalf("RegionKnown(%d) = %v, want %v", region, got, want)
		}
	}
	check(0, true)
	check(1, false)
	check(2, false)
	check(3, false) // the answer may have a fourth region
	walk(t, d, r2, "r")
	check(3, true) // it has not
	check(9, true)
	check(2, false)
	walk(t, d, p, "d")
	walk(t, d, r2, "d")
	if !e.Complete() {
		t.Fatal("fully explored entry not Complete")
	}
	check(1, true)
	check(2, true)
}

// TestEntryComplete: completeness needs every label and every child
// list, and the wire form carries it.
func TestEntryComplete(t *testing.T) {
	tree := xmltree.Elem("a", xmltree.Leaf("b"), xmltree.Leaf("c"))
	e := New(0).Entry("v", "fp", 1)
	d := newDoc(e, nav.NewTreeDoc(tree))
	root, _ := d.Root()
	d.Fetch(root)
	walk(t, d, root, "dd") // b is a leaf, but a's list may go on
	if e.Complete() {
		t.Fatal("entry with unexplored frontier reports Complete")
	}
	if e.Export().Complete() {
		t.Fatal("Region.Complete() holds for an incomplete region")
	}
	if got := explore(t, d); !e.Complete() || !xmltree.Equal(got, tree) {
		t.Fatalf("fully explored entry: Complete %v, tree %v", e.Complete(), got)
	}
	// The export is complete, and merged into an empty entry it makes
	// that entry complete with the same region.
	reg := e.Export()
	f := New(0).Entry("v", "fp", 1)
	f.Merge(reg)
	if !reg.Complete() || !f.Complete() || !slices.Equal(*f.Export(), *reg) {
		t.Fatalf("merged export: complete %v/%v, region %+v, want %+v", reg.Complete(), f.Complete(), *f.Export(), *reg)
	}
}
