package regioncache

import (
	"fmt"
	"testing"

	"mix/internal/algebra"
	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

// planFor builds a distinct small canonical plan per label: the plan
// index never inspects plan structure, so any non-nil Op will do, but
// distinct paths keep fingerprints honest if a test ever canonicalizes.
func planFor(label string) algebra.Op {
	return &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "s", Var: "v0"},
		Parent: "v0", Path: pathexpr.MustParse(label), Out: "v1",
	}
}

func TestPlanIndexCandidates(t *testing.T) {
	c := New(0)
	k := func(fp string) Key { return Key{Generation: 0, Registry: 1, Name: "v", Fingerprint: fp} }
	c.IndexPlan(k("fp1"), planFor("a"))
	c.IndexPlan(k("fp2"), planFor("b"))
	c.IndexPlan(k("fp1"), planFor("a")) // duplicate fingerprint: dropped

	if got := c.candidates(k("fp1")); len(got) != 1 || got[0].key.Fingerprint != "fp2" {
		t.Fatalf("candidates for fp1 = %+v, want exactly fp2 (self excluded, no dup)", got)
	}
	// Other registry versions and other view names see nothing.
	if got := c.candidates(Key{Generation: 0, Registry: 2, Name: "v", Fingerprint: "fp1"}); len(got) != 0 {
		t.Fatalf("cross-registry candidates = %+v, want none", got)
	}
	if got := c.candidates(Key{Generation: 0, Registry: 1, Name: "w", Fingerprint: "fp1"}); len(got) != 0 {
		t.Fatalf("cross-view candidates = %+v, want none", got)
	}
	// A fingerprint not itself indexed still sees the bucket.
	if got := c.candidates(k("fp3")); len(got) != 2 {
		t.Fatalf("candidates for unindexed fp = %d plans, want 2", len(got))
	}
}

func TestPlanIndexBucketBound(t *testing.T) {
	c := New(0)
	for i := 0; i < maxPlansPerBucket+10; i++ {
		fp := fmt.Sprintf("fp%02d", i)
		c.IndexPlan(Key{Registry: 1, Name: "v", Fingerprint: fp}, planFor("a"))
	}
	got := c.candidates(Key{Registry: 1, Name: "v", Fingerprint: "none"})
	if len(got) != maxPlansPerBucket {
		t.Fatalf("bucket holds %d plans, want capped at %d", len(got), maxPlansPerBucket)
	}
}

func TestPlanIndexGenerations(t *testing.T) {
	c := New(0)
	// Stale-generation inserts are dropped outright.
	c.IndexPlan(Key{Generation: 5, Registry: 1, Name: "v", Fingerprint: "old"}, planFor("a"))
	if got := c.candidates(Key{Generation: 5, Registry: 1, Name: "v", Fingerprint: "x"}); len(got) != 0 {
		t.Fatalf("stale-generation plan was indexed: %+v", got)
	}
	c.IndexPlan(Key{Generation: 0, Registry: 1, Name: "v", Fingerprint: "cur"}, planFor("a"))
	// Invalidation advances the generation and prunes dead buckets.
	c.Invalidate()
	if got := c.candidates(Key{Generation: 0, Registry: 1, Name: "v", Fingerprint: "x"}); len(got) != 0 {
		t.Fatalf("pre-invalidation bucket survived: %+v", got)
	}
	c.IndexPlan(Key{Generation: 1, Registry: 1, Name: "v", Fingerprint: "cur"}, planFor("a"))
	if got := c.candidates(Key{Generation: 1, Registry: 1, Name: "v", Fingerprint: "x"}); len(got) != 1 {
		t.Fatalf("current-generation index broken after invalidate: %+v", got)
	}
}

// TestRegionKnown: a region is known deep when its whole subtree is
// complete, shallow when its label, child list and children's labels
// are, and past the end of the answer only once the top-level child
// list is complete.
func TestRegionKnown(t *testing.T) {
	open := func(label string, kids ...*xmltree.Tree) *xmltree.Tree {
		return &xmltree.Tree{Label: label, Children: append(kids, xmltree.Hole("more"))}
	}
	leaf := func(label string) *xmltree.Tree { return &xmltree.Tree{Label: label} }
	r0 := &xmltree.Tree{Label: "r0", Children: []*xmltree.Tree{leaf("x"), leaf("y")}}
	r1 := &xmltree.Tree{Label: "r1", Children: []*xmltree.Tree{open("p")}} // p's own children unknown
	r2 := open("r2")                                                       // child list unknown
	e := New(0).Entry("v", "fp", 1)
	e.MergeTree(open("a", r0, r1, r2))
	check := func(region int, deep, want bool) {
		t.Helper()
		if got := e.RegionKnown(region, deep); got != want {
			t.Fatalf("RegionKnown(%d, deep=%v) = %v, want %v", region, deep, got, want)
		}
	}
	check(0, true, true)
	check(0, false, true)
	check(1, false, true)
	check(1, true, false)
	check(2, false, false)
	check(3, false, false) // the answer may have a fourth region
	e.MergeTree(&xmltree.Tree{Label: "a", Children: []*xmltree.Tree{r0, r1, r2}})
	check(3, true, true) // it has not
	check(9, false, true)
	check(2, false, false)
	e.MergeTree(&xmltree.Tree{Label: "a", Children: []*xmltree.Tree{r0,
		{Label: "r1", Children: []*xmltree.Tree{leaf("p")}}, leaf("r2")}})
	if !e.Complete() {
		t.Fatal("fully merged entry not Complete")
	}
	check(1, true, true)
	check(2, true, true)
}

func TestEntryCompleteAndTree(t *testing.T) {
	c := New(0)
	e := c.Entry("v", "fp", 1)
	// An open frontier (hole after b) keeps the region incomplete.
	e.MergeTree(&xmltree.Tree{Label: "a", Children: []*xmltree.Tree{
		{Label: "b"}, xmltree.Hole("more"),
	}})
	if e.Complete() {
		t.Fatal("entry with unexplored frontier reports Complete")
	}
	if _, ok := e.Tree(); ok {
		t.Fatal("Tree() handed out a truncated region")
	}
	if e.Export().Complete() {
		t.Fatal("Region.Complete() holds for an incomplete region")
	}
	// Publishing the full materialization closes every child list.
	e.MergeTree(&xmltree.Tree{Label: "a", Children: []*xmltree.Tree{
		{Label: "b"}, {Label: "c"},
	}})
	if !e.Complete() {
		t.Fatal("fully explored entry not Complete")
	}
	tr, ok := e.Tree()
	if !ok || tr.Label != "a" || len(tr.Children) != 2 || tr.Children[1].Label != "c" {
		t.Fatalf("Tree() = %v, %v", tr, ok)
	}
	// The wire form carries completeness: the export is complete, and
	// merged into an empty entry it yields the same tree.
	reg := e.Export()
	f := New(0).Entry("v", "fp", 1)
	f.Merge(reg)
	if wt, ok := f.Tree(); !reg.Complete() || !ok || !xmltree.Equal(wt, tr) {
		t.Fatalf("merged export: complete %v, Tree() = %v, %v, want %v", reg.Complete(), wt, ok, tr)
	}
}
