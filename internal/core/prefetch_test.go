package core

import (
	"context"
	"testing"

	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/workload"
)

// prefetchRig builds an engine over the running example with counted
// sources and a region cache.
func prefetchRig(t *testing.T, cache *regioncache.Cache) (*Engine, *Query, *metrics.Counters) {
	t.Helper()
	homes, schools := workload.HomesSchools(12, 8, 4, 7)
	src := &metrics.Counters{}
	eng := New(DefaultOptions())
	eng.Register("homesSrc", &nav.CountingDoc{Doc: nav.NewTreeDoc(homes), Counters: src})
	eng.Register("schoolsSrc", &nav.CountingDoc{Doc: nav.NewTreeDoc(schools), Counters: src})
	eng.SetRegionCache(cache)
	q, err := eng.Compile(workload.HomesSchoolsPlan())
	if err != nil {
		t.Fatal(err)
	}
	q.SetCacheName("homes")
	return eng, q, src
}

func TestPrefetchRegionWarmsDemand(t *testing.T) {
	cache := regioncache.New(0)
	eng, q, src := prefetchRig(t, cache)
	spec := &metrics.Counters{}
	res, err := q.PrefetchRegion(context.Background(), 1, true, PrefetchBudget{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Navs == 0 || res.Bytes == 0 || res.Exhausted || res.Cancelled {
		t.Fatalf("drain result: %+v", res)
	}
	if spec.Navigations() != res.Navs {
		t.Fatalf("counters got %d navs, result says %d", spec.Navigations(), res.Navs)
	}
	if st := cache.Stats(); st.SpecEntries != 1 {
		t.Fatalf("expected one speculative entry, stats %+v", st)
	}

	// A fresh demand query over the same engine navigates region 1 with
	// zero source navigations — and promotes the entry.
	q2, err := eng.Compile(workload.HomesSchoolsPlan())
	if err != nil {
		t.Fatal(err)
	}
	q2.SetCacheName("homes")
	before := src.Navigations()
	doc := q2.Document()
	root, _ := doc.Root()
	cur, _ := doc.Down(root)
	cur, _ = doc.Right(cur) // region 1 top
	if err := exploreAll(doc, cur); err != nil {
		t.Fatal(err)
	}
	if navs := src.Navigations() - before; navs != 0 {
		t.Fatalf("demand drill of the prefetched region cost %d source navs; want 0", navs)
	}
	if st := cache.Stats(); st.SpecEntries != 0 {
		t.Fatalf("demand open did not promote the entry: %+v", st)
	}
}

// exploreAll fully explores the subtree under p.
func exploreAll(doc nav.Document, p nav.ID) error {
	if _, err := doc.Fetch(p); err != nil {
		return err
	}
	c, err := doc.Down(p)
	if err != nil {
		return err
	}
	for c != nil {
		if err := exploreAll(doc, c); err != nil {
			return err
		}
		if c, err = doc.Right(c); err != nil {
			return err
		}
	}
	return nil
}

func TestPrefetchBudgetExhaustion(t *testing.T) {
	cache := regioncache.New(0)
	_, q, _ := prefetchRig(t, cache)
	spec := &metrics.Counters{}
	res, err := q.PrefetchRegion(context.Background(), 0, true, PrefetchBudget{MaxNavs: 3}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatalf("MaxNavs=3 drain not exhausted: %+v", res)
	}
	if res.Navs > 4 {
		t.Fatalf("drain overshot its navigation budget: %+v", res)
	}
	res, err = q.PrefetchRegion(context.Background(), 0, true, PrefetchBudget{MaxBytes: 8}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatalf("MaxBytes=8 drain not exhausted: %+v", res)
	}
}

func TestPrefetchCancelled(t *testing.T) {
	cache := regioncache.New(0)
	_, q, _ := prefetchRig(t, cache)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := q.PrefetchRegion(ctx, 0, true, PrefetchBudget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatalf("pre-cancelled drain not reported cancelled: %+v", res)
	}
}

func TestPrefetchPastLastRegionCompletesChildList(t *testing.T) {
	cache := regioncache.New(0)
	eng, q, src := prefetchRig(t, cache)
	// There are far fewer than 100 joined homes: the walk right-scans off
	// the end, which publishes the *complete* top-level child list.
	if _, err := q.PrefetchRegion(context.Background(), 100, true, PrefetchBudget{}, nil); err != nil {
		t.Fatal(err)
	}
	q2, err := eng.Compile(workload.HomesSchoolsPlan())
	if err != nil {
		t.Fatal(err)
	}
	q2.SetCacheName("homes")
	before := src.Navigations()
	doc := q2.Document()
	root, _ := doc.Root()
	cur, _ := doc.Down(root)
	for cur != nil {
		cur, _ = doc.Right(cur)
	}
	if navs := src.Navigations() - before; navs != 0 {
		t.Fatalf("top-level scan after over-the-end prefetch cost %d source navs; want 0", navs)
	}
}

func TestPrefetchStaleGenerationDetached(t *testing.T) {
	cache := regioncache.New(0)
	_, q, _ := prefetchRig(t, cache)
	cache.Invalidate() // engine now lags the cache epoch
	res, err := q.PrefetchRegion(context.Background(), 0, true, PrefetchBudget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Navs == 0 {
		t.Fatalf("stale drain did no work: %+v", res)
	}
	if st := cache.Stats(); st.Entries != 0 || st.SpecEntries != 0 {
		t.Fatalf("stale-generation drain published into the shared cache: %+v", st)
	}
}

func TestPrefetchRequiresCacheName(t *testing.T) {
	eng := New(DefaultOptions())
	homes, _ := workload.HomesSchools(2, 2, 2, 1)
	eng.Register("homesSrc", nav.NewTreeDoc(homes))
	eng.Register("schoolsSrc", nav.NewTreeDoc(homes))
	q, err := eng.Compile(workload.HomesSchoolsPlan())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.PrefetchRegion(context.Background(), 0, true, PrefetchBudget{}, nil); err == nil {
		t.Fatal("uncached query accepted a prefetch")
	}
}
