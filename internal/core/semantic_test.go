package core

import (
	"testing"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/xmas"
	"mix/internal/xmltree"
)

// The semantic-cache soundness contract: whenever a query is answered
// from a subsuming cached region, the answer must be byte-identical to
// the from-source drain and cost zero source navigations.

func translateQ(t testing.TB, text string) algebra.Op {
	t.Helper()
	q, err := xmas.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p, err := q.Translate()
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	return p
}

func sumNavs(counters map[string]*nav.CountingDoc) int64 {
	var n int64
	for _, c := range counters {
		n += c.Counters.Navigations()
	}
	return n
}

func bibTree() *xmltree.Tree {
	return xmltree.Elem("bib",
		xmltree.Elem("book", xmltree.Text("title", "tcp"), xmltree.Text("price", "65")),
		xmltree.Elem("book", xmltree.Text("title", "data"), xmltree.Text("price", "19")),
		xmltree.Elem("book", xmltree.Text("title", "web"), xmltree.Text("price", "12")),
		xmltree.Elem("cd", xmltree.Text("title", "sonata"), xmltree.Text("price", "10")),
		xmltree.Elem("book", xmltree.Text("title", "data"), xmltree.Text("price", "19")),
	)
}

// drainSemPair drains the super query cold (when superset is set),
// then materializes the sub query against the same cache and returns
// (sub answer, source navs the sub query cost, cache stats). Without
// the superset the sub query meets a fresh cache: the cold baseline.
func drainSemPair(t *testing.T, superPlan, subPlan algebra.Op, srcs map[string]*xmltree.Tree, superset bool) (*xmltree.Tree, int64, regioncache.Stats) {
	t.Helper()
	e, counters := engineWith(DefaultOptions(), srcs)
	cache := regioncache.New(0)
	e.SetRegionCache(cache)

	if superset {
		qs := mustCompileAs(t, e, superPlan, "v")
		mustMaterialize(t, qs)
	}

	before := sumNavs(counters)
	qq := mustCompileAs(t, e, subPlan, "v")
	got := mustMaterialize(t, qq)
	return got, sumNavs(counters) - before, cache.Stats()
}

// oracle materializes the plan on a fresh, uncached engine.
func oracle(t *testing.T, plan algebra.Op, srcs map[string]*xmltree.Tree) *xmltree.Tree {
	t.Helper()
	e, _ := engineWith(DefaultOptions(), srcs)
	return mustMaterialize(t, mustCompile(t, e, plan))
}

// TestSemanticConstructSubsumed: the E18 pair — bib[entry] drained
// cold, then bib[entry WHERE price<20] answered from it with zero
// source navigations and a byte-identical answer.
func TestSemanticConstructSubsumed(t *testing.T) {
	superQ := `CONSTRUCT <result> $B {$B} </result> {} WHERE src bib.book $B`
	subQ := `CONSTRUCT <result> $B {$B} </result> {}
	         WHERE src bib.book $B AND $B price._ $P AND $P < "20"`
	srcs := map[string]*xmltree.Tree{"src": bibTree()}
	superPlan, subPlan := translateQ(t, superQ), translateQ(t, subQ)

	got, navs, st := drainSemPair(t, superPlan, subPlan, srcs, true)
	want := oracle(t, subPlan, srcs)
	if !xmltree.Equal(got, want) {
		t.Fatalf("semantic answer differs\ngot  %v\nwant %v", got, want)
	}
	if navs != 0 {
		t.Fatalf("subsumed query cost %d source navigations, want 0", navs)
	}
	if st.SemanticHits != 1 {
		t.Fatalf("semantic hits = %d, want 1 (stats %+v)", st.SemanticHits, st)
	}

	// On a fresh cache with no superset the sub query drains its
	// sources, records one semantic miss, and answers identically.
	got, navs, st = drainSemPair(t, superPlan, subPlan, srcs, false)
	if !xmltree.Equal(got, want) {
		t.Fatalf("cold answer differs")
	}
	if navs == 0 {
		t.Fatal("cold subsumed query touched no source with no superset cached")
	}
	if st.SemanticHits != 0 || st.SemanticMisses != 1 {
		t.Fatalf("cold run: semantic hits/misses = %d/%d, want 0/1 (stats %+v)", st.SemanticHits, st.SemanticMisses, st)
	}
}

// TestSemanticConstructPathWeakened: the sub query restricts the
// *grouping* path (book ⊂ _) rather than adding a condition.
func TestSemanticConstructPathWeakened(t *testing.T) {
	superQ := `CONSTRUCT <result> $B {$B} </result> {} WHERE src bib._ $B`
	subQ := `CONSTRUCT <result> $B {$B} </result> {} WHERE src bib.book $B`
	srcs := map[string]*xmltree.Tree{"src": bibTree()}
	superPlan, subPlan := translateQ(t, superQ), translateQ(t, subQ)

	got, navs, st := drainSemPair(t, superPlan, subPlan, srcs, true)
	want := oracle(t, subPlan, srcs)
	if !xmltree.Equal(got, want) {
		t.Fatalf("semantic answer differs\ngot  %v\nwant %v", got, want)
	}
	if navs != 0 {
		t.Fatalf("subsumed query cost %d source navigations, want 0", navs)
	}
	if st.SemanticHits != 1 {
		t.Fatalf("semantic hits = %d (stats %+v)", st.SemanticHits, st)
	}
}

// TestSemanticConstructJoin: a join-shaped construct (the Fig. 3
// family) with a σ-restricted sub query.
func TestSemanticConstructJoin(t *testing.T) {
	superQ := `CONSTRUCT <answer> <med_home> $H {$H} </med_home> </answer> {}
	           WHERE homesSrc homes.home $H AND $H zip._ $V1
	           AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`
	subQ := `CONSTRUCT <answer> <med_home> $H {$H} </med_home> </answer> {}
	         WHERE homesSrc homes.home $H AND $H zip._ $V1
	         AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2
	         AND $H price._ $P AND $P < "400000"`
	homes := xmltree.Elem("homes",
		xmltree.Elem("home", xmltree.Text("zip", "92093"), xmltree.Text("price", "350000")),
		xmltree.Elem("home", xmltree.Text("zip", "92093"), xmltree.Text("price", "990000")),
		xmltree.Elem("home", xmltree.Text("zip", "92122"), xmltree.Text("price", "200000")),
	)
	schools := xmltree.Elem("schools",
		xmltree.Elem("school", xmltree.Text("zip", "92093")),
		xmltree.Elem("school", xmltree.Text("zip", "92093")),
	)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	superPlan, subPlan := translateQ(t, superQ), translateQ(t, subQ)

	got, navs, st := drainSemPair(t, superPlan, subPlan, srcs, true)
	want := oracle(t, subPlan, srcs)
	if !xmltree.Equal(got, want) {
		t.Fatalf("semantic answer differs\ngot  %v\nwant %v", got, want)
	}
	if navs != 0 {
		t.Fatalf("subsumed query cost %d source navigations, want 0", navs)
	}
	if st.SemanticHits != 1 {
		t.Fatalf("semantic hits = %d (stats %+v)", st.SemanticHits, st)
	}
}

// TestSemanticConstructResidual: the sub query's σ reads the grouped
// variable itself, so the rebuild filters each group subtree by it.
func TestSemanticConstructResidual(t *testing.T) {
	src := xmltree.Elem("r",
		xmltree.Leaf("a"), xmltree.Leaf("b"), xmltree.Leaf("a"), xmltree.Leaf("c"))
	srcs := map[string]*xmltree.Tree{"s": src}
	superQ := `CONSTRUCT <result> $Y {$Y} </result> {} WHERE s r._ $Y`
	subQ := `CONSTRUCT <result> $Y {$Y} </result> {} WHERE s r._ $Y AND $Y = "a"`
	superPlan, subPlan := translateQ(t, superQ), translateQ(t, subQ)

	got, navs, st := drainSemPair(t, superPlan, subPlan, srcs, true)
	want := oracle(t, subPlan, srcs)
	if !xmltree.Equal(got, want) {
		t.Fatalf("residual answer differs\ngot  %v\nwant %v", got, want)
	}
	if navs != 0 {
		t.Fatalf("residual sub query cost %d source navigations, want 0", navs)
	}
	if st.SemanticHits != 1 {
		t.Fatalf("semantic hits = %d (stats %+v)", st.SemanticHits, st)
	}
}

// TestSemanticRejectsPartialSuperset: a superset region that is not
// fully explored must never answer a subsumed query (incomplete skip,
// then an ordinary source-backed evaluation).
func TestSemanticRejectsPartialSuperset(t *testing.T) {
	superQ := `CONSTRUCT <result> $B {$B} </result> {} WHERE src bib.book $B`
	subQ := `CONSTRUCT <result> $B {$B} </result> {}
	         WHERE src bib.book $B AND $B price._ $P AND $P < "20"`
	srcs := map[string]*xmltree.Tree{"src": bibTree()}

	e, _ := engineWith(DefaultOptions(), srcs)
	cache := regioncache.New(0)
	e.SetRegionCache(cache)

	qs := mustCompileAs(t, e, translateQ(t, superQ), "v")
	// Explore only the root label: the entry exists and is indexed but
	// is nowhere near complete.
	doc := qs.Document()
	root, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Fetch(root); err != nil {
		t.Fatal(err)
	}

	qq := mustCompileAs(t, e, translateQ(t, subQ), "v")
	got := mustMaterialize(t, qq)
	want := oracle(t, translateQ(t, subQ), srcs)
	if !xmltree.Equal(got, want) {
		t.Fatalf("fallback answer differs\ngot  %v\nwant %v", got, want)
	}
	st := cache.Stats()
	if st.SemanticHits != 0 {
		t.Fatalf("semantic hit against a partial superset: %+v", st)
	}
	if st.SemanticIncompleteSkips == 0 {
		t.Fatalf("no incomplete skip recorded: %+v", st)
	}
}

// TestSemanticNotContained: a sub query whose condition does NOT imply
// the cached plan's must miss semantically and re-derive from source.
func TestSemanticNotContained(t *testing.T) {
	superQ := `CONSTRUCT <result> $B {$B} </result> {}
	           WHERE src bib.book $B AND $B price._ $P AND $P < "20"`
	subQ := `CONSTRUCT <result> $B {$B} </result> {} WHERE src bib.book $B`
	srcs := map[string]*xmltree.Tree{"src": bibTree()}

	got, navs, st := drainSemPair(t, translateQ(t, superQ), translateQ(t, subQ), srcs, true)
	want := oracle(t, translateQ(t, subQ), srcs)
	if !xmltree.Equal(got, want) {
		t.Fatalf("answer differs\ngot  %v\nwant %v", got, want)
	}
	if navs == 0 {
		t.Fatal("wider query answered without source work — unsound containment")
	}
	if st.SemanticHits != 0 || st.SemanticMisses == 0 {
		t.Fatalf("expected a recorded semantic miss: %+v", st)
	}
}
