package core

import (
	"context"
	"sync"
	"testing"

	"mix/internal/eager"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/workload"
	"mix/internal/xmltree"
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
	// Alone on the query, the drain's share is all the sources saw.
	if res.SrcNavs == 0 || res.SrcNavs != src.Navigations() {
		t.Fatalf("drain reports %d source navs, the sources saw %d", res.SrcNavs, src.Navigations())
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

// TestPrefetchSharedQueryStress: a session's demand document and its
// drains navigate one join+groupBy query at once (run with -race) while
// the client changes direction. Every region the client explores, and
// the whole answer afterwards, equals the eager evaluation: the
// navigation lock never lets a navigation observe a torn lazy log.
func TestPrefetchSharedQueryStress(t *testing.T) {
	homes, schools := workload.HomesSchools(12, 8, 4, 7)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	ev := eager.New()
	for name, tree := range srcs {
		ev.Register(name, nav.NewTreeDoc(tree))
	}
	full, err := ev.Eval(workload.HomesSchoolsPlan())
	if err != nil {
		t.Fatal(err)
	}
	regions := len(full.Children)
	if regions < 6 {
		t.Fatalf("answer has %d regions; the test needs more", regions)
	}
	// The client jumps back and forth: forward scans, backward restarts.
	order := []int{0, regions - 1, 2, 1, regions / 2, 3, regions - 2, 0, regions / 2, 1}

	for round := 0; round < 3; round++ {
		e, _ := engineWith(DefaultOptions(), srcs)
		e.SetRegionCache(regioncache.New(0))
		q := mustCompile(t, e, workload.HomesSchoolsPlan())
		q.SetCacheName("homes")

		ctx, stop := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ctx.Err() == nil; i++ {
					r := (i*5 + w*3 + round) % (regions + 1)
					dctx, cancel := context.WithCancel(ctx)
					if i%3 == 0 {
						cancel() // some drains lose to demand at once
					}
					_, err := q.PrefetchRegion(dctx, r, i%2 == 0, PrefetchBudget{MaxNavs: int64(8 + i%40)}, nil)
					cancel()
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}

		doc := q.Document()
		for _, r := range order {
			root, err := doc.Root()
			if err != nil {
				t.Fatal(err)
			}
			cur, err := doc.Down(root)
			for i := 0; i < r && err == nil; i++ {
				cur, err = doc.Right(cur)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := subtreeAt(doc, cur)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := xmltree.MarshalXML(got), xmltree.MarshalXML(full.Children[r]); g != w {
				t.Fatalf("round %d region %d:\n got %s\nwant %s", round, r, g, w)
			}
		}
		stop()
		wg.Wait()
		if got, want := xmltree.MarshalXML(mustMaterialize(t, q)), xmltree.MarshalXML(full); got != want {
			t.Fatalf("round %d: answer after the drains differs from eager:\n%s\nvs\n%s", round, got, want)
		}
	}
}

// subtreeAt materializes the subtree of doc under p.
func subtreeAt(doc nav.Document, p nav.ID) (*xmltree.Tree, error) {
	label, err := doc.Fetch(p)
	if err != nil {
		return nil, err
	}
	out := &xmltree.Tree{Label: label}
	c, err := doc.Down(p)
	for c != nil && err == nil {
		var sub *xmltree.Tree
		if sub, err = subtreeAt(doc, c); err == nil {
			out.Children = append(out.Children, sub)
			c, err = doc.Right(c)
		}
	}
	return out, err
}
