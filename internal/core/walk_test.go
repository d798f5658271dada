package core

import (
	"testing"

	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/workload"
)

// walkRig compiles the running example, cache-named, on an engine with
// a fresh region cache, and returns the query, its answer document and
// the top of its region 0.
func walkRig(t *testing.T) (*Query, nav.Document, nav.ID) {
	t.Helper()
	homes, schools := workload.HomesSchools(12, 8, 4, 7)
	eng := New(DefaultOptions())
	eng.Register("homesSrc", nav.NewTreeDoc(homes))
	eng.Register("schoolsSrc", nav.NewTreeDoc(schools))
	eng.SetRegionCache(regioncache.New(0))
	q := mustCompileAs(t, eng, workload.HomesSchoolsPlan(), "homes")
	doc := q.Document()
	root, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	top, err := doc.Down(root)
	if err != nil || top == nil {
		t.Fatalf("answer has no region 0: %v", err)
	}
	return q, doc, top
}

// TestPrefetchBudgetExhaustion: a walk stops at either budget without
// an error, leaving the region open; an unbounded walk closes it.
func TestPrefetchBudgetExhaustion(t *testing.T) {
	for _, b := range []PrefetchBudget{{MaxNavs: 3}, {MaxBytes: 8}} {
		q, doc, top := walkRig(t)
		navs := &metrics.Counters{}
		if err := WalkRegion(&nav.CountingDoc{Doc: doc, Counters: navs}, top, b); err != nil {
			t.Fatalf("budget %+v: %v", b, err)
		}
		if b.MaxNavs > 0 && navs.Navigations() > b.MaxNavs {
			t.Fatalf("walk overshot its %d-navigation budget: %d", b.MaxNavs, navs.Navigations())
		}
		if q.eng.cache.Peek(q.RegionKey()).RegionKnown(0) {
			t.Fatalf("budget %+v: the walk closed region 0", b)
		}
	}
	q, doc, top := walkRig(t)
	if err := WalkRegion(doc, top, PrefetchBudget{}); err != nil {
		t.Fatal(err)
	}
	if !q.eng.cache.Peek(q.RegionKey()).RegionKnown(0) {
		t.Fatal("an unbounded walk left region 0 open")
	}
}
