package mediator

// Tests of the prepared-view memo: one preprocessing per query text,
// shared read-only across Results and goroutines, invalidated by
// DefineView, and holding nothing a registry update could pin. Run
// under -race.

import (
	"strings"
	"sync"
	"testing"

	"mix/internal/algebra"
	"mix/internal/core"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// cachedMediator is newMediator with a region cache installed.
func cachedMediator(t testing.TB, seed int64) *Mediator {
	t.Helper()
	m := New(DefaultOptions())
	m.SetRegionCache(regioncache.New(64 << 20))
	h, s := workload.HomesSchools(15, 20, 4, seed)
	m.RegisterTree("homesSrc", h)
	m.RegisterTree("schoolsSrc", s)
	return m
}

func mustMaterialize(t *testing.T, res *Result) *xmltree.Tree {
	t.Helper()
	got, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMemoConcurrentQuery: eight goroutines opening one text all get one
// fingerprint and the eager answer, and later opens share one plan.
func TestMemoConcurrentQuery(t *testing.T) {
	m := cachedMediator(t, 40)
	want, err := m.QueryEager(homesSchoolsView)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	fps := make([]string, workers)
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				res, err := m.Query(homesSchoolsView)
				if err != nil {
					errs <- err.Error()
					return
				}
				_, fp := res.CacheKey()
				if fps[w] != "" && fps[w] != fp {
					errs <- "fingerprint changed between opens of one text"
					return
				}
				fps[w] = fp
				got, err := res.Materialize()
				if err != nil {
					errs <- err.Error()
					return
				}
				if !xmltree.Equal(got, want) {
					errs <- "lazy answer differs from QueryEager"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for w := range fps {
		if fps[w] != fps[0] {
			t.Fatalf("worker %d fingerprint %q, worker 0 %q", w, fps[w], fps[0])
		}
	}
	a, err := m.Query(homesSchoolsView)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Query(homesSchoolsView)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan != b.Plan {
		t.Fatal("two opens of a memoized text hold different plans")
	}
}

// TestMemoDefineViewRecomposes: redefining a view after a memoized
// query clears the memo, so the same text composes with the new body.
func TestMemoDefineViewRecomposes(t *testing.T) {
	m := newMediator(t, 41)
	const query = `CONSTRUCT <out> $X {$X} </out> {} WHERE v vs._ $X`
	answer := func() *xmltree.Tree {
		t.Helper()
		res, err := m.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		got := mustMaterialize(t, res)
		want, err := m.QueryEager(query)
		if err != nil {
			t.Fatal(err)
		}
		if !xmltree.Equal(got, want) {
			t.Fatal("lazy answer differs from QueryEager")
		}
		return got
	}
	if err := m.DefineView("v", `CONSTRUCT <vs> $H {$H} </vs> {} WHERE homesSrc homes.home $H`); err != nil {
		t.Fatal(err)
	}
	homes := answer()
	if err := m.DefineView("v", `CONSTRUCT <vs> $S {$S} </vs> {} WHERE schoolsSrc schools.school $S`); err != nil {
		t.Fatal(err)
	}
	schools := answer()
	if len(homes.Children) == 0 || len(schools.Children) == 0 {
		t.Fatal("empty answer")
	}
	if homes.Children[0].Label != "home" || schools.Children[0].Label != "school" {
		t.Fatalf("answers %s then %s, want home then school",
			homes.Children[0].Label, schools.Children[0].Label)
	}
}

// opaqueCond hides its condition from algebra.RenameVars, so a plan
// carrying it has no canonical form. XMAS never produces one.
type opaqueCond struct{ algebra.Cond }

// homeScan is the plan homesSrc.home → $H.
func homeScan() algebra.Op {
	return &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("home"), Out: "H",
	}
}

// memoize stores plan, prepared, under text, as if preprocessing had
// produced it.
func memoize(t *testing.T, m *Mediator, text string, plan algebra.Op) {
	t.Helper()
	view, err := core.Prepare(plan, "query")
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	m.memo[text] = memoEntry{view: view}
	m.mu.Unlock()
}

// TestMemoOpaquePlanFingerprints: a memoized plan without a canonical
// form still mints a distinct opaque fingerprint per Query, so two opens
// of it never share a region-cache entry.
func TestMemoOpaquePlanFingerprints(t *testing.T) {
	m := cachedMediator(t, 42)
	memoize(t, m, "opaque", &algebra.Select{Input: homeScan(), Cond: opaqueCond{algebra.True{}}})
	memoize(t, m, "canonical", &algebra.Select{Input: homeScan(), Cond: algebra.True{}})
	fingerprints := func(text string) (string, string) {
		t.Helper()
		var fps [2]string
		var answers [2]string
		for i := range fps {
			res, err := m.Query(text)
			if err != nil {
				t.Fatal(err)
			}
			_, fps[i] = res.CacheKey()
			answers[i] = xmltree.MarshalXML(mustMaterialize(t, res))
		}
		if answers[0] != answers[1] {
			t.Fatalf("%s: answers differ between opens", text)
		}
		return fps[0], fps[1]
	}
	if a, b := fingerprints("opaque"); a == b {
		t.Fatalf("opaque plan shares fingerprint %q across opens", a)
	}
	if a, b := fingerprints("canonical"); a != b {
		t.Fatalf("canonical plan fingerprints differ: %q vs %q", a, b)
	}
}

// TestMemoRegistryVersionInRegionKey: the memo pins no registry state;
// a Register between two opens of one text moves RegionKey, and the
// second open reads the new source.
func TestMemoRegistryVersionInRegionKey(t *testing.T) {
	m := cachedMediator(t, 43)
	const query = `CONSTRUCT <hs> $H {$H} </hs> {} WHERE homesSrc homes.home $H`
	first, err := m.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	before := mustMaterialize(t, first)
	h, _ := workload.HomesSchools(3, 0, 2, 44)
	m.RegisterTree("homesSrc", h)
	second, err := m.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := first.RegionKey(), second.RegionKey()
	if k2.Registry <= k1.Registry {
		t.Fatalf("registry version %d after Register, %d before", k2.Registry, k1.Registry)
	}
	if k1.Fingerprint != k2.Fingerprint {
		t.Fatal("fingerprint moved with the registry")
	}
	after := mustMaterialize(t, second)
	want, err := m.QueryEager(query)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(after, want) || xmltree.Equal(after, before) {
		t.Fatal("second open did not read the re-registered source")
	}
}

// TestMemoCompileErrorsAtQuery: a plan the operator compiler rejects
// never reaches the memo, since only core.Prepare builds what it holds,
// and a memoized text whose compile failed succeeds once its source is
// registered.
func TestMemoCompileErrorsAtQuery(t *testing.T) {
	m := newMediator(t, 45)
	nested := &algebra.Distinct{Input: &algebra.TupleDestroy{Input: homeScan(), Var: "H"}}
	if _, err := core.Prepare(nested, "query"); err == nil || !strings.Contains(err.Error(), "tupleDestroy must be the plan root") {
		t.Fatalf("Prepare = %v; want the nested tupleDestroy error", err)
	}
	const later = `CONSTRUCT <a> $X {$X} </a> {} WHERE laterSrc r.x $X`
	if _, err := m.Query(later); err == nil {
		t.Fatal("unregistered source must fail at Query")
	}
	m.RegisterTree("laterSrc", xmltree.Elem("r", xmltree.Leaf("x")))
	res, err := m.Query(later)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustMaterialize(t, res); len(got.Children) != 1 {
		t.Fatalf("answer has %d children, want 1", len(got.Children))
	}
}

// warmMediator returns a cached mediator whose entry for
// homesSchoolsView is complete.
func warmMediator(tb testing.TB) *Mediator {
	tb.Helper()
	m := cachedMediator(tb, 46)
	res, err := m.Query(homesSchoolsView)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := res.Materialize(); err != nil {
		tb.Fatal(err)
	}
	if !res.SemanticWarm() {
		tb.Fatal("entry not complete after Materialize")
	}
	return m
}

// warmOpenAllocs bounds the allocations of a warm open — a memo hit
// compiled and its cache-aware document built over a complete entry.
// It measured 5 (Go 1.24, amd64): the Query with its resolved-source
// slice, the cache-aware document with its producer func, and the
// Result; the plan was validated and canonicalized once, by
// core.Prepare, and no pipeline root is built, since the entry owns its
// producer. The bound adds six, as it always has. Before the entry
// owned its producer the same open made 12, before the prepared view
// 64, and before the memo and the deferred pipeline 606.
const warmOpenAllocs = 11

// TestWarmQueryAllocs pins the warm open's allocation bound: no
// preprocessing and no operator pipeline.
func TestWarmQueryAllocs(t *testing.T) {
	m := warmMediator(t)
	allocs := testing.AllocsPerRun(100, func() {
		res, err := m.Query(homesSchoolsView)
		if err != nil {
			t.Fatal(err)
		}
		res.Document()
	})
	if allocs > warmOpenAllocs {
		t.Errorf("warm open allocates %v times, bound %d", allocs, warmOpenAllocs)
	}
}

func BenchmarkQueryWarm(b *testing.B) {
	m := warmMediator(b)
	b.ReportAllocs()
	for b.Loop() {
		res, err := m.Query(homesSchoolsView)
		if err != nil {
			b.Fatal(err)
		}
		res.Document()
	}
}
