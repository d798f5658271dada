package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// zipPlan binds every zip code of every home: one answer child per home.
func zipPlan() algebra.Op {
	return &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("home.zip"), Out: "Z",
	}
}

// walkChildren scans the first k answer children of doc (d, then r),
// fetching each one's label, and returns the id of the k-th.
func walkChildren(t *testing.T, doc nav.Document, k int) nav.ID {
	t.Helper()
	root, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	cur, err := doc.Down(root)
	for i := 0; ; i++ {
		if err != nil || cur == nil {
			t.Fatalf("answer child %d: %v %v", i, cur, err)
		}
		if _, err := doc.Fetch(cur); err != nil {
			t.Fatal(err)
		}
		if i == k-1 {
			return cur
		}
		cur, err = doc.Right(cur)
	}
}

// TestWarmPrefixContinuation: one right past a warm K-prefix costs the
// same source navigations as the deriving session's own next right, at
// every K. The entry's producer continues from the prefix's last node
// instead of re-deriving the prefix for the session that reached it on
// hits.
func TestWarmPrefixContinuation(t *testing.T) {
	for _, k := range []int{10, 100, 1000} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			homes, _ := workload.HomesSchools(2*k, 0, 2, 7)
			// next returns the source navigations of one right past the
			// k-prefix: taken by the session that derived the prefix, or
			// by a second session that walked it on hits.
			next := func(second bool) int64 {
				e, counters := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"homesSrc": homes})
				e.SetRegionCache(regioncache.New(0))
				src := counters["homesSrc"].Counters
				view := mustPrepare(t, zipPlan(), "v")
				a, err := e.Compile(view)
				if err != nil {
					t.Fatal(err)
				}
				doc := a.Document()
				last := walkChildren(t, doc, k)
				if second {
					b, err := e.Compile(view)
					if err != nil {
						t.Fatal(err)
					}
					doc = b.Document()
					before := src.Navigations()
					last = walkChildren(t, doc, k)
					if n := src.Navigations() - before; n != 0 {
						t.Fatalf("walking the warm prefix cost %d source navigations, want 0", n)
					}
				}
				before := src.Navigations()
				if sib, err := doc.Right(last); err != nil || sib == nil {
					t.Fatalf("right past the prefix: %v %v", sib, err)
				}
				return src.Navigations() - before
			}
			deriving, warm := next(false), next(true)
			if warm != deriving {
				t.Fatalf("right past a warm %d-prefix cost %d source navigations, the deriving session's %d", k, warm, deriving)
			}
		})
	}
}

// TestConcurrentSessionsExtendOneEntry: sessions on separate engines
// (each with its own counting sources) explore one entry concurrently.
// Every answer equals the eager oracle, and the sources of all engines
// together pay exactly one private exploration: whichever engine's
// query produces, no region is derived twice.
func TestConcurrentSessionsExtendOneEntry(t *testing.T) {
	homes, schools := workload.HomesSchools(40, 30, 6, 11)
	trees := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	for name, plan := range map[string]algebra.Op{"fig4": workload.HomesSchoolsPlan(), "zips": zipPlan()} {
		t.Run(name, func(t *testing.T) {
			want := eagerAnswer(t, plan, trees)
			view := mustPrepare(t, plan, "v")

			solo, soloCounters := engineWith(DefaultOptions(), trees)
			q, err := solo.Compile(view)
			if err != nil {
				t.Fatal(err)
			}
			mustMaterialize(t, q)
			var private int64
			for _, cd := range soloCounters {
				private += cd.Counters.Navigations()
			}

			const sessions = 8
			cache := regioncache.New(0)
			var total atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, sessions)
			for i := 0; i < sessions; i++ {
				e, counters := engineWith(DefaultOptions(), trees)
				e.SetRegionCache(cache)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() {
						for _, cd := range counters {
							total.Add(cd.Counters.Navigations())
						}
					}()
					q, err := e.Compile(view)
					if err != nil {
						errs <- err
						return
					}
					got, err := q.Materialize()
					if err == nil && xmltree.MarshalXML(got) != want {
						err = fmt.Errorf("session answer differs from the eager oracle:\n%s", xmltree.MarshalXML(got))
					}
					errs <- err
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := total.Load(); got != private {
				t.Fatalf("%d sessions paid %d source navigations together, one private exploration %d", sessions, got, private)
			}
		})
	}
}

// countingRemote counts the L2 fetches of a cache and misses every one.
type countingRemote struct{ fetches atomic.Int64 }

func (r *countingRemote) Fetch(regioncache.Key) *regioncache.Region {
	r.fetches.Add(1)
	return nil
}

// TestStaleOpenFetchesOnce: a query compiled on an engine whose cache
// generation went stale resolves its detached entry once, so Warm and
// Document share it and the remote tier is asked once.
func TestStaleOpenFetchesOnce(t *testing.T) {
	homes, _ := workload.HomesSchools(4, 0, 2, 7)
	e, _ := engineWith(DefaultOptions(), map[string]*xmltree.Tree{"homesSrc": homes})
	cache := regioncache.New(0)
	remote := &countingRemote{}
	cache.SetRemote(remote)
	e.SetRegionCache(cache)
	cache.Invalidate()
	q := mustCompileAs(t, e, zipPlan(), "v")
	if q.Warm() {
		t.Fatal("a detached entry with nothing fetched is complete")
	}
	mustMaterialize(t, q)
	if n := remote.fetches.Load(); n != 1 {
		t.Fatalf("one Warm and one Document fetched %d times from the remote tier, want 1", n)
	}
}

// flakyDoc fails every navigation while down is set.
type flakyDoc struct {
	nav.Document
	down atomic.Bool
}

func (f *flakyDoc) Root() (nav.ID, error) {
	if f.down.Load() {
		return nil, errors.New("source down")
	}
	return f.Document.Root()
}

// TestProducerRebuiltAfterFailure: a lazy answer keeps the error of a
// failed source navigation, so the entry drops a producer that failed,
// and the next miss, even from the same session, derives on a fresh
// one.
func TestProducerRebuiltAfterFailure(t *testing.T) {
	homes, _ := workload.HomesSchools(6, 0, 2, 7)
	src := &flakyDoc{Document: nav.NewTreeDoc(homes)}
	e := New(DefaultOptions())
	e.Register("homesSrc", src)
	e.SetRegionCache(regioncache.New(0))
	doc := mustCompileAs(t, e, zipPlan(), "v").Document()
	root, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	src.down.Store(true)
	if _, err := doc.Down(root); err == nil {
		t.Fatal("the source failure was not reported")
	}
	src.down.Store(false)
	got, err := nav.Materialize(doc)
	if err != nil {
		t.Fatalf("after the source recovered: %v", err)
	}
	if want := eagerAnswer(t, zipPlan(), map[string]*xmltree.Tree{"homesSrc": homes}); xmltree.MarshalXML(got) != want {
		t.Fatalf("answer after recovery:\n%s\nwant\n%s", xmltree.MarshalXML(got), want)
	}
}

// TestSharedInnerRebuiltAfterFailure: a failed derivation of a shared
// join inner is dropped from the engine, so a query's memoized error
// does not poison the registry version. With a region cache, the
// entry's fresh producer derives the inner afresh once the source
// recovers; without one, so does the next plan.
func TestSharedInnerRebuiltAfterFailure(t *testing.T) {
	homes, schools := workload.HomesSchools(10, 8, 3, 7)
	want := eagerAnswer(t, workload.HomesSchoolsPlan(),
		map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools})
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("region cache %v", cached), func(t *testing.T) {
			src := &flakyDoc{Document: nav.NewTreeDoc(schools)}
			e := New(DefaultOptions())
			e.Register("homesSrc", nav.NewTreeDoc(homes))
			e.Register("schoolsSrc", src)
			name := ""
			if cached {
				e.SetRegionCache(regioncache.New(0))
				name = "v"
			}
			doc := mustCompileAs(t, e, workload.HomesSchoolsPlan(), name).Document()
			root, err := doc.Root()
			if err != nil {
				t.Fatal(err)
			}
			src.down.Store(true)
			if _, err := doc.Down(root); err == nil {
				t.Fatal("the join inner's failure was not reported")
			}
			src.down.Store(false)
			if !cached {
				doc = mustCompileAs(t, e, workload.HomesSchoolsPlan(), name).Document()
			}
			got, err := nav.Materialize(doc)
			if err != nil {
				t.Fatalf("after the source recovered: %v", err)
			}
			if xmltree.MarshalXML(got) != want {
				t.Fatalf("answer after recovery:\n%s\nwant\n%s", xmltree.MarshalXML(got), want)
			}
		})
	}
}
