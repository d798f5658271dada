package mediator

// Tests of the prepared-view memo: one preprocessing per query text,
// shared read-only across Results and goroutines, invalidated by
// DefineView, and holding nothing a registry update could pin. Run
// under -race.

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// TestPrepareRejectsOpaqueNamedPlan: a plan with no canonical form has
// no region-cache key, so preparing it under a cache name fails, while
// the same plan prepares unnamed and a canonical one prepares named.
func TestPrepareRejectsOpaqueNamedPlan(t *testing.T) {
	opaque := &algebra.Select{Input: homeScan(), Cond: opaqueCond{algebra.True{}}}
	if _, err := core.Prepare(opaque, "query"); err == nil {
		t.Fatal("a named plan with no canonical form was prepared")
	}
	if _, err := core.Prepare(opaque, ""); err != nil {
		t.Fatalf("unnamed plan with no canonical form: %v", err)
	}
	v, err := core.Prepare(&algebra.Select{Input: homeScan(), Cond: algebra.True{}}, "query")
	if err != nil {
		t.Fatal(err)
	}
	if v.Fingerprint() == "" {
		t.Fatal("canonical named plan has no fingerprint")
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

// medHomeFresh is the med-home join with one literal per open: a
// comparison that always holds (zip codes start at 91000), so every
// text is new, with a new fingerprint and the same answer.
const medHomeFresh = `CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1 AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2 AND $V1 > "`

// freshTexts returns n med-home texts with the literals from, from+1, ….
func freshTexts(from, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = medHomeFresh + strconv.Itoa(from+i) + `"`
	}
	return out
}

// BenchmarkQueryFresh opens a text of a seen shape with a literal never
// seen before: the exact-text memo misses, and the open binds the
// literal into the shape's template.
func BenchmarkQueryFresh(b *testing.B) {
	m := cachedMediator(b, 47)
	texts := freshTexts(0, b.N+2)
	for _, q := range texts[:2] {
		if _, err := m.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	texts = texts[2:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, err := m.Query(texts[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// freshQueryAllocs bounds the allocations of a fresh-literal open of a
// seen shape: the parse that finds the literal, the bound view's copied
// plan spines and re-rendered fingerprint, and the compile. It measured
// 76 (Go 1.24, amd64); the bound adds six, as warmOpenAllocs does. The
// same open preprocessed the whole text, 415 allocations, before the
// shape memo.
const freshQueryAllocs = 82

// TestFreshLiteralQueryAllocs pins the fresh-literal open's allocation
// bound: no translation, composition, rewriting or canonicalization.
func TestFreshLiteralQueryAllocs(t *testing.T) {
	m := cachedMediator(t, 48)
	const runs = 100
	texts := freshTexts(0, runs+3)
	for _, q := range texts[:2] {
		if _, err := m.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	i := 2
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := m.Query(texts[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > freshQueryAllocs {
		t.Errorf("fresh-literal open allocates %v times, bound %d", allocs, freshQueryAllocs)
	}
}

// TestShapeMemoSecondSighting: a shape seen once is preprocessed whole
// and only marked; its second sighting keeps a template, and later
// texts of the shape bind into it. A text without literals never enters
// the shape memo, and DefineView clears it.
func TestShapeMemoSecondSighting(t *testing.T) {
	m := newMediator(t, 49)
	texts := freshTexts(0, 3)
	shapes := func() (seen, templates int) {
		memos := m.Memos()
		memos.mu.Lock()
		defer memos.mu.Unlock()
		for _, s := range memos.shapes {
			seen++
			if s != nil {
				templates++
			}
		}
		return seen, templates
	}
	want := []struct{ seen, templates int }{{1, 0}, {1, 1}, {1, 1}}
	for i, q := range texts {
		if _, err := m.Query(q); err != nil {
			t.Fatal(err)
		}
		if s, tm := shapes(); s != want[i].seen || tm != want[i].templates {
			t.Fatalf("after open %d: %d shapes, %d templates; want %d, %d",
				i+1, s, tm, want[i].seen, want[i].templates)
		}
	}
	if _, err := m.Query(homesSchoolsView); err != nil {
		t.Fatal(err)
	}
	if s, _ := shapes(); s != 1 {
		t.Fatalf("a text without literals entered the shape memo: %d shapes", s)
	}
	if err := m.DefineView("v", `CONSTRUCT <vs> $H {$H} </vs> {} WHERE homesSrc homes.home $H`); err != nil {
		t.Fatal(err)
	}
	if s, _ := shapes(); s != 0 {
		t.Fatalf("DefineView left %d shapes", s)
	}
}

// TestPoolFlatUnderFreshLiterals: 10 000 fresh-literal opens, each
// deriving its answer's first result, on a 64 KiB cache leave the
// key-string pool holding only the fingerprints of what the cache
// holds: evicted entries and freed plan slots release theirs.
func TestPoolFlatUnderFreshLiterals(t *testing.T) {
	c := regioncache.New(64 << 10)
	m := New(DefaultOptions())
	m.SetRegionCache(c)
	h, s := workload.HomesSchools(15, 20, 4, 50)
	m.RegisterTree("homesSrc", h)
	m.RegisterTree("schoolsSrc", s)
	const text = `CONSTRUCT <hs> $H {$H} </hs> {} WHERE homesSrc homes.home $H AND $H zip._ $V AND $V > "`
	open := func(k int) {
		res, err := m.Query(text + strconv.Itoa(k) + `"`)
		if err != nil {
			t.Fatal(err)
		}
		d := res.Document()
		root, err := d.Root()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Down(root); err != nil {
			t.Fatal(err)
		}
	}
	var early int64
	for k := range 10_000 {
		open(k)
		if k == 999 {
			early = c.Stats().InternedBytes
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("the cache never evicted: the test does not exercise release")
	}
	if st.InternedBytes > early+early/4 {
		t.Fatalf("pool grew from %d B after 1 000 opens to %d B after 10 000 (%d entries live)",
			early, st.InternedBytes, st.Entries)
	}
}

// TestDefineViewRacesFreshOpens: eight goroutines open fresh literals of
// one shape over a view while DefineView redefines it. No open may get a
// plan composed with a definition older than the latest one completed
// before the open began. Run under -race.
func TestDefineViewRacesFreshOpens(t *testing.T) {
	m := newMediator(t, 51)
	define := func(gen int) {
		body := `CONSTRUCT <vs> $H {$H} </vs> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z != "gen` +
			strconv.Itoa(gen) + `"`
		if err := m.DefineView("v", body); err != nil {
			t.Error(err)
		}
	}
	// generation returns the view generation a plan was composed with.
	generation := func(plan algebra.Op) int {
		gen := -1
		algebra.Walk(plan, func(op algebra.Op) {
			if s, ok := op.(*algebra.Select); ok {
				for _, l := range literals(s.Cond) {
					if g, err := strconv.Atoi(strings.TrimPrefix(l, "gen")); err == nil && strings.HasPrefix(l, "gen") {
						gen = g
					}
				}
			}
		})
		return gen
	}
	define(0)
	const opens, workers = 300, 8
	var defined, next atomic.Int64
	stop := make(chan struct{})
	definer := make(chan struct{})
	go func() {
		defer close(definer)
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			define(gen)
			defined.Store(int64(gen))
		}
	}()
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range opens {
				floor := defined.Load()
				k := next.Add(1)
				res, err := m.Query(`CONSTRUCT <out> $X {$X} </out> {} WHERE v vs._ $X AND $X != "q` + strconv.FormatInt(k, 10) + `"`)
				if err != nil {
					t.Error(err)
					return
				}
				if g := generation(res.Plan); int64(g) < floor {
					t.Errorf("open begun after definition %d composed definition %d", floor, g)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-definer
	if defined.Load() < 2 {
		t.Fatalf("only %d redefinitions ran during the opens", defined.Load())
	}
}

// literals returns the literal operands of c's comparisons.
func literals(c algebra.Cond) []string {
	switch c := c.(type) {
	case *algebra.Cmp:
		var out []string
		for _, o := range []algebra.Operand{c.L, c.R} {
			if o.Var == "" {
				out = append(out, o.Lit)
			}
		}
		return out
	case *algebra.And:
		return append(literals(c.L), literals(c.R)...)
	case *algebra.Or:
		return append(literals(c.L), literals(c.R)...)
	case *algebra.Not:
		return literals(c.C)
	}
	return nil
}
