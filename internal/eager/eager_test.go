package eager

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mix/internal/algebra"
	"mix/internal/core"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// compile prepares plan as an uncached view and compiles it on e.
func compile(e *core.Engine, plan algebra.Op) (*core.Query, error) {
	v, err := core.Prepare(plan, "")
	if err != nil {
		return nil, err
	}
	return e.Compile(v)
}

func evalWith(t *testing.T, srcs map[string]*xmltree.Tree, plan algebra.Op) *xmltree.Tree {
	t.Helper()
	e := New()
	for name, tr := range srcs {
		e.Register(name, nav.NewTreeDoc(tr))
	}
	got, err := e.Eval(plan)
	if err != nil {
		t.Fatalf("eager Eval: %v\nplan:\n%s", err, algebra.String(plan))
	}
	return got
}

func lazyWith(t *testing.T, srcs map[string]*xmltree.Tree, plan algebra.Op) *xmltree.Tree {
	t.Helper()
	e := core.New(core.DefaultOptions())
	for name, tr := range srcs {
		e.Register(name, nav.NewTreeDoc(tr))
	}
	q, err := compile(e, plan)
	if err != nil {
		t.Fatalf("lazy Compile: %v", err)
	}
	got, err := q.Materialize()
	if err != nil {
		t.Fatalf("lazy Materialize: %v", err)
	}
	return got
}

func TestFig4Eager(t *testing.T) {
	homes, schools := workload.HomesSchools(10, 10, 3, 1)
	got := evalWith(t, map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools},
		workload.HomesSchoolsPlan())
	if got.Label != "answer" {
		t.Fatalf("root = %q", got.Label)
	}
	for _, mh := range got.Children {
		if mh.Label != "med_home" {
			t.Fatalf("child %q", mh.Label)
		}
		if mh.FirstChild().Label != "home" {
			t.Fatalf("med_home starts with %q", mh.FirstChild().Label)
		}
		zip := mh.FirstChild().Find("zip").TextContent()
		if len(mh.Children) < 2 {
			t.Fatalf("med_home without schools: %v", mh)
		}
		for _, s := range mh.Children[1:] {
			if s.Label != "school" || s.Find("zip").TextContent() != zip {
				t.Fatalf("school zip mismatch in %v", mh)
			}
		}
	}
}

// The central equivalence property: the lazy mediator tree and the
// eager baseline compute identical answers for every plan and dataset.
func TestLazyEqualsEagerCorpus(t *testing.T) {
	cases := []struct {
		name string
		srcs func(seed int64) map[string]*xmltree.Tree
		plan algebra.Op
	}{
		{
			name: "homeschools",
			srcs: func(seed int64) map[string]*xmltree.Tree {
				h, s := workload.HomesSchools(12, 17, 4, seed)
				return map[string]*xmltree.Tree{"homesSrc": h, "schoolsSrc": s}
			},
			plan: workload.HomesSchoolsPlan(),
		},
		{
			name: "conc",
			srcs: func(seed int64) map[string]*xmltree.Tree {
				return map[string]*xmltree.Tree{
					"s1": workload.FlatList(9, "a", "b"),
					"s2": workload.FlatList(4, "c"),
				}
			},
			plan: workload.ConcPlan("s1", "s2"),
		},
		{
			name: "selection",
			srcs: func(seed int64) map[string]*xmltree.Tree {
				return map[string]*xmltree.Tree{"s": workload.FlatList(20, "a", "b", "c")}
			},
			plan: workload.SelectionPlan("s", "b"),
		},
		{
			name: "reorder",
			srcs: func(seed int64) map[string]*xmltree.Tree {
				h, _ := workload.HomesSchools(15, 0, 5, seed)
				return map[string]*xmltree.Tree{"s": h}
			},
			plan: workload.ReorderPlan("s", "price._"),
		},
		{
			name: "allbooks",
			srcs: func(seed int64) map[string]*xmltree.Tree {
				return map[string]*xmltree.Tree{
					"amazon": workload.Books("az", 25, seed),
					"bn":     workload.Books("bn", 15, seed+1),
				}
			},
			plan: workload.AllBooksPlan("amazon", "bn", "databases"),
		},
		{
			name: "recursive",
			srcs: func(seed int64) map[string]*xmltree.Tree {
				return map[string]*xmltree.Tree{"d": workload.DeepTree(5, 2)}
			},
			plan: workload.RecursivePlan("d"),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				srcs := c.srcs(seed)
				eagerT := evalWith(t, srcs, c.plan)
				lazyT := lazyWith(t, srcs, c.plan)
				if !xmltree.Equal(eagerT, lazyT) {
					t.Fatalf("seed %d: lazy ≠ eager\neager: %s\nlazy:  %s",
						seed, eagerT, lazyT)
				}
			}
		})
	}
}

// Equivalence must also hold after navigational-complexity rewriting.
func TestRewrittenPlansEquivalent(t *testing.T) {
	homes, schools := workload.HomesSchools(10, 10, 3, 7)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}

	// A selection over the view, as a client query composed with it.
	base := workload.HomesSchoolsPlan().(*algebra.TupleDestroy)
	// Build σ_{V1<91300}(join…) style plan by inserting selects above
	// the join inside the view.
	gd := func(src, rv, out, path string) *algebra.GetDescendants {
		return &algebra.GetDescendants{
			Input:  &algebra.Source{URL: src, Var: rv},
			Parent: rv, Path: pathexpr.MustParse(path), Out: out,
		}
	}
	left := &algebra.GetDescendants{Input: gd("homesSrc", "r1", "H", "home"),
		Parent: "H", Path: pathexpr.MustParse("zip._"), Out: "V1"}
	right := &algebra.GetDescendants{Input: gd("schoolsSrc", "r2", "S", "school"),
		Parent: "S", Path: pathexpr.MustParse("zip._"), Out: "V2"}
	joined := &algebra.Join{Left: left, Right: right,
		Cond: algebra.Eq(algebra.V("V1"), algebra.V("V2"))}
	sel := &algebra.Select{Input: joined,
		Cond: &algebra.Cmp{Op: algebra.OpLt, L: algebra.V("V1"), R: algebra.Lit("91002")}}
	plan := &algebra.Project{Input: sel, Keep: []string{"H", "S"}}

	rewritten := algebra.Rewrite(plan)
	a := evalWith(t, srcs, plan)
	b := evalWith(t, srcs, rewritten)
	if !xmltree.Equal(a, b) {
		t.Fatalf("rewriting changed semantics:\n%s\nvs\n%s",
			algebra.String(plan), algebra.String(rewritten))
	}
	c := lazyWith(t, srcs, rewritten)
	if !xmltree.Equal(a, c) {
		t.Fatal("lazy evaluation of rewritten plan differs")
	}
	_ = base
}

func TestQuickGetDescendantsLazyEqualsEager(t *testing.T) {
	paths := []string{"a", "a.b", "_", "_._", "a*.b", "(a|b)._", "a+", "_*.b"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomTree(r, 4)
		path := paths[r.Intn(len(paths))]
		gd := &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "s", Var: "R"},
			Parent: "R", Path: pathexpr.MustParse(path), Out: "X",
		}
		plan := &algebra.Project{Input: gd, Keep: []string{"X"}}
		srcs := map[string]*xmltree.Tree{"s": src}

		ev := New()
		ev.Register("s", nav.NewTreeDoc(src))
		eagerT, err := ev.Eval(plan)
		if err != nil {
			return false
		}
		le := core.New(core.DefaultOptions())
		le.Register("s", nav.NewTreeDoc(src))
		q, err := compile(le, plan)
		if err != nil {
			return false
		}
		lazyT, err := q.Materialize()
		if err != nil {
			return false
		}
		_ = srcs
		return xmltree.Equal(eagerT, lazyT)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func randomTree(r *rand.Rand, depth int) *xmltree.Tree {
	labels := []string{"a", "b", "c"}
	t := &xmltree.Tree{Label: labels[r.Intn(len(labels))]}
	if depth <= 0 {
		return t
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		t.Children = append(t.Children, randomTree(r, depth-1))
	}
	return t
}

func TestEagerBillsFullSources(t *testing.T) {
	homes, schools := workload.HomesSchools(30, 30, 5, 9)
	e := New()
	ch := nav.NewCountingDoc(nav.NewTreeDoc(homes))
	cs := nav.NewCountingDoc(nav.NewTreeDoc(schools))
	e.Register("homesSrc", ch)
	e.Register("schoolsSrc", cs)
	if _, err := e.Eval(workload.HomesSchoolsPlan()); err != nil {
		t.Fatal(err)
	}
	// Materializing a source of n nodes costs ≥ 2n navigations (f+d
	// per node); the whole document must have been read.
	if got, min := ch.Counters.Navigations(), int64(2*homes.Size()); got < min {
		t.Fatalf("homes navigations = %d, want ≥ %d", got, min)
	}
	if got, min := cs.Counters.Navigations(), int64(2*schools.Size()); got < min {
		t.Fatalf("schools navigations = %d, want ≥ %d", got, min)
	}
}

func TestEagerErrors(t *testing.T) {
	e := New()
	if _, err := e.Eval(&algebra.Source{URL: "missing", Var: "X"}); err == nil {
		t.Fatal("unregistered source must fail")
	}
	if _, err := e.Eval(&algebra.Source{}); err == nil {
		t.Fatal("invalid plan must fail")
	}
	e.Register("s", nav.NewTreeDoc(xmltree.Elem("r")))
	gd := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("none"), Out: "X"}
	if _, err := e.Eval(&algebra.TupleDestroy{Input: gd, Var: "X"}); err == nil {
		t.Fatal("tupleDestroy over empty list must fail")
	}
}

func TestEagerSourceMaterializedOncePerEval(t *testing.T) {
	src := workload.FlatList(50, "a")
	cd := nav.NewCountingDoc(nav.NewTreeDoc(src))
	e := New()
	e.Register("s", cd)
	// Self-join: the source appears twice in the plan but is read once.
	l := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R1"},
		Parent: "R1", Path: pathexpr.MustParse("a"), Out: "X"}
	r := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R2"},
		Parent: "R2", Path: pathexpr.MustParse("a"), Out: "Y"}
	plan := &algebra.Join{Left: &algebra.Project{Input: l, Keep: []string{"X"}},
		Right: &algebra.Project{Input: r, Keep: []string{"Y"}}, Cond: algebra.True{}}
	if _, err := e.Eval(plan); err != nil {
		t.Fatal(err)
	}
	first := cd.Counters.Navigations()
	if _, err := e.Eval(plan); err != nil {
		t.Fatal(err)
	}
	if got := cd.Counters.Navigations(); got != 2*first {
		t.Fatalf("per-Eval materialization caching wrong: first=%d total=%d", first, got)
	}
}

func TestEagerHelperOps(t *testing.T) {
	src := xmltree.Elem("r", xmltree.Text("a", "1"), xmltree.Text("a", "2"))
	e := New()
	e.Register("s", nav.NewTreeDoc(src))
	gd := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("a"), Out: "X"}
	wl := &algebra.WrapList{Input: gd, Var: "X", Out: "L"}
	ko := &algebra.Const{Input: wl, Value: xmltree.Text("c", "v"), Out: "K"}
	rn := &algebra.Rename{Input: ko, From: "K", To: "K2"}
	got, err := e.Eval(&algebra.Project{Input: rn, Keep: []string{"L", "K2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Children) != 2 {
		t.Fatalf("rows = %d", len(got.Children))
	}
	b := got.FirstChild()
	l := b.Find("L").FirstChild()
	if l.Label != "list" || len(l.Children) != 1 || l.Children[0].Label != "a" {
		t.Fatalf("wrapList: %v", l)
	}
	if !xmltree.Equal(b.Find("K2").FirstChild(), xmltree.Text("c", "v")) {
		t.Fatalf("const+rename: %v", b.Find("K2"))
	}
}

func TestEagerOrderByElementsAndEmptyGroup(t *testing.T) {
	// orderBy over element-valued keys compares text content.
	src := xmltree.Elem("r",
		xmltree.Elem("p", xmltree.Text("k", "b")),
		xmltree.Elem("p", xmltree.Text("k", "a")))
	e := New()
	e.Register("s", nav.NewTreeDoc(src))
	gd := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("p"), Out: "P"}
	ob := &algebra.OrderBy{Input: gd, Keys: []string{"P"}}
	got, err := e.Eval(&algebra.Project{Input: ob, Keep: []string{"P"}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Children[0].FirstChild().TextContent() != "a" {
		t.Fatalf("element-key order: %v", got)
	}

	// Empty-by groupBy over empty input yields one empty group.
	gdNone := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R2"},
		Parent: "R2", Path: pathexpr.MustParse("none"), Out: "X"}
	grp := &algebra.GroupBy{Input: gdNone, By: nil, Var: "X", Out: "G"}
	got2, err := e.Eval(grp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Children) != 1 {
		t.Fatalf("empty-by group rows = %d", len(got2.Children))
	}
	lst := got2.FirstChild().Find("G").FirstChild()
	if lst.Label != "list" || len(lst.Children) != 0 {
		t.Fatalf("empty group list: %v", lst)
	}
}

func TestEagerDynamicLabelAndLabelMatch(t *testing.T) {
	src := xmltree.Elem("r", xmltree.Text("tag", "dyn"), xmltree.Text("v", "1"))
	e := New()
	e.Register("s", nav.NewTreeDoc(src))
	gt := &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
		Parent: "R", Path: pathexpr.MustParse("tag"), Out: "T"}
	sel := &algebra.Select{Input: gt, Cond: &algebra.LabelMatch{Var: "T", Label: "tag"}}
	gv := &algebra.GetDescendants{Input: sel, Parent: "R",
		Path: pathexpr.MustParse("v"), Out: "V"}
	ce := &algebra.CreateElement{Input: gv,
		Label: algebra.LabelSpec{Var: "T"}, Children: "V", Out: "E"}
	got, err := e.Eval(&algebra.Project{Input: ce, Keep: []string{"E"}})
	if err != nil {
		t.Fatal(err)
	}
	el := got.FirstChild().FirstChild().FirstChild()
	if el.Label != "dyn" {
		t.Fatalf("dynamic label = %q", el.Label)
	}
}
