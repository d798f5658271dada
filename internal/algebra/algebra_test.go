package algebra

import (
	"strings"
	"testing"

	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

// fig4 builds the running-example plan of Fig. 4 (homes with local
// schools), without the final tupleDestroy/createElement(answer) pair
// when trimmed is set.
func fig4() Op {
	homes := &GetDescendants{
		Input:  &Source{URL: "homesSrc", Var: "root1"},
		Parent: "root1", Path: pathexpr.MustParse("homes.home"), Out: "H",
	}
	homesZip := &GetDescendants{Input: homes, Parent: "H", Path: pathexpr.MustParse("zip._"), Out: "V1"}
	schools := &GetDescendants{
		Input:  &Source{URL: "schoolsSrc", Var: "root2"},
		Parent: "root2", Path: pathexpr.MustParse("schools.school"), Out: "S",
	}
	schoolsZip := &GetDescendants{Input: schools, Parent: "S", Path: pathexpr.MustParse("zip._"), Out: "V2"}
	join := &Join{Left: homesZip, Right: schoolsZip, Cond: Eq(V("V1"), V("V2"))}
	grp := &GroupBy{Input: join, By: []string{"H"}, Var: "S", Out: "LSs"}
	conc := &Concatenate{Input: grp, X: "H", Y: "LSs", Out: "HLSs"}
	mh := &CreateElement{Input: conc, Label: LabelSpec{Const: "med_home"}, Children: "HLSs", Out: "MHs"}
	all := &GroupBy{Input: mh, By: nil, Var: "MHs", Out: "MHL"}
	ans := &CreateElement{Input: all, Label: LabelSpec{Const: "answer"}, Children: "MHL", Out: "A"}
	return &TupleDestroy{Input: ans, Var: "A"}
}

func TestValidateFig4(t *testing.T) {
	if err := Validate(fig4()); err != nil {
		t.Fatalf("fig4 should validate: %v", err)
	}
}

func TestOutVars(t *testing.T) {
	p := fig4()
	if len(p.OutVars()) != 0 {
		t.Fatalf("tupleDestroy OutVars = %v", p.OutVars())
	}
	src := &Source{URL: "s", Var: "X"}
	if got := src.OutVars(); len(got) != 1 || got[0] != "X" {
		t.Fatalf("source OutVars = %v", got)
	}
	gd := &GetDescendants{Input: src, Parent: "X", Path: pathexpr.MustParse("a"), Out: "Y"}
	if got := gd.OutVars(); len(got) != 2 || got[1] != "Y" {
		t.Fatalf("getDescendants OutVars = %v", got)
	}
}

func TestValidateErrors(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	cases := []struct {
		name string
		plan Op
	}{
		{"empty source", &Source{}},
		{"unknown parent", &GetDescendants{Input: src, Parent: "nope", Path: pathexpr.MustParse("a"), Out: "Y"}},
		{"nil path", &GetDescendants{Input: src, Parent: "X", Out: "Y"}},
		{"shadowing out", &GetDescendants{Input: src, Parent: "X", Path: pathexpr.MustParse("a"), Out: "X"}},
		{"select unknown var", &Select{Input: src, Cond: Eq(V("nope"), Lit("1"))}},
		{"join shared var", &Join{Left: src, Right: &Source{URL: "t", Var: "X"}, Cond: True{}}},
		{"groupBy unknown key", &GroupBy{Input: src, By: []string{"nope"}, Var: "X", Out: "G"}},
		{"groupBy unknown var", &GroupBy{Input: src, By: nil, Var: "nope", Out: "G"}},
		{"concat unknown", &Concatenate{Input: src, X: "X", Y: "nope", Out: "Z"}},
		{"createElement empty label", &CreateElement{Input: src, Children: "X", Out: "E"}},
		{"createElement unknown children", &CreateElement{Input: src, Label: LabelSpec{Const: "e"}, Children: "nope", Out: "E"}},
		{"orderBy no keys", &OrderBy{Input: src}},
		{"orderBy unknown key", &OrderBy{Input: src, Keys: []string{"nope"}}},
		{"project none", &Project{Input: src}},
		{"project unknown", &Project{Input: src, Keep: []string{"nope"}}},
		{"union mismatch", &Union{Left: src, Right: &Source{URL: "t", Var: "Y"}}},
		{"difference mismatch", &Difference{Left: src, Right: &Source{URL: "t", Var: "Y"}}},
		{"tupleDestroy unknown", &TupleDestroy{Input: src, Var: "nope"}},
	}
	for _, c := range cases {
		if err := Validate(c.plan); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestValidateOKVariants(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	src2 := &Source{URL: "t", Var: "X"}
	ok := []Op{
		&Union{Left: src, Right: src2},
		&Difference{Left: src, Right: src2},
		&Distinct{Input: src},
		&Select{Input: src, Cond: &LabelMatch{Var: "X", Label: "a"}},
		&OrderBy{Input: src, Keys: []string{"X"}},
		&Project{Input: &Join{Left: src, Right: &Source{URL: "t", Var: "Y"}, Cond: True{}}, Keep: []string{"Y"}},
		&GroupBy{Input: src, By: nil, Var: "X", Out: "G"},
	}
	for i, p := range ok {
		if err := Validate(p); err != nil {
			t.Errorf("plan %d should validate: %v", i, err)
		}
	}
}

func TestPlanString(t *testing.T) {
	s := String(fig4())
	for _, want := range []string{"tupleDestroy", "createElement", "groupBy", "join", "getDescendants", "source[homesSrc"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
	// Indentation shows nesting.
	if !strings.Contains(s, "\n  createElement") {
		t.Errorf("plan string not indented:\n%s", s)
	}
}

func TestSources(t *testing.T) {
	got := Sources(fig4())
	if len(got) != 2 || got[0] != "homesSrc" || got[1] != "schoolsSrc" {
		t.Fatalf("Sources = %v", got)
	}
}

type mapBinding map[string]*xmltree.Tree

func (m mapBinding) Value(name string) (*xmltree.Tree, error) { return m[name], nil }

func TestCondEval(t *testing.T) {
	b := mapBinding{
		"V1": xmltree.Leaf("91220"),
		"V2": xmltree.Leaf("91220"),
		"V3": xmltree.Leaf("91223"),
		"Z":  xmltree.Text("zip", "91220"),
		"P":  xmltree.Leaf("9.5"),
	}
	cases := []struct {
		cond Cond
		want bool
	}{
		{Eq(V("V1"), V("V2")), true},
		{Eq(V("V1"), V("V3")), false},
		{Eq(V("V1"), Lit("91220")), true},
		{Eq(V("Z"), Lit("91220")), true}, // element vs literal: text content
		{&Cmp{Op: OpNeq, L: V("V1"), R: V("V3")}, true},
		{&Cmp{Op: OpLt, L: V("V1"), R: V("V3")}, true},
		{&Cmp{Op: OpLt, L: V("P"), R: Lit("10")}, true}, // numeric: 9.5 < 10
		{&Cmp{Op: OpGe, L: V("V3"), R: V("V1")}, true},
		{&Cmp{Op: OpGt, L: V("V1"), R: V("V3")}, false},
		{&Cmp{Op: OpLe, L: V("V1"), R: V("V1")}, true},
		{&And{L: Eq(V("V1"), V("V2")), R: Eq(V("V1"), V("V3"))}, false},
		{&Or{L: Eq(V("V1"), V("V3")), R: Eq(V("V1"), V("V2"))}, true},
		{&Not{C: Eq(V("V1"), V("V3"))}, true},
		{True{}, true},
		{&LabelMatch{Var: "Z", Label: "zip"}, true},
		{&LabelMatch{Var: "Z", Label: "addr"}, false},
	}
	for _, c := range cases {
		got, err := c.cond.Eval(b)
		if err != nil {
			t.Errorf("%s: %v", c.cond, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.cond, got, c.want)
		}
	}
}

// TestCmpLiteralNoAllocs pins that a literal operand is compared as its
// atom: evaluating against a constant builds no tree.
func TestCmpLiteralNoAllocs(t *testing.T) {
	b := mapBinding{"P": xmltree.Leaf("9.5"), "Z": xmltree.Text("zip", "91220")}
	conds := []Cond{
		Eq(V("Z"), Lit("91220")),
		&Cmp{Op: OpLt, L: V("P"), R: Lit("10")},
		&Cmp{Op: OpNeq, L: Lit("a"), R: Lit("b")},
	}
	for _, c := range conds {
		if ok, err := c.Eval(b); !ok || err != nil {
			t.Fatalf("%s = %v, %v; want true", c, ok, err)
		}
		if n := testing.AllocsPerRun(100, func() { c.Eval(b) }); n != 0 {
			t.Errorf("%s: %.1f allocs per Eval, want 0", c, n)
		}
	}
}

func TestCondStructuralEquality(t *testing.T) {
	b := mapBinding{
		"A": xmltree.Elem("home", xmltree.Text("zip", "1")),
		"B": xmltree.Elem("home", xmltree.Text("zip", "1")),
		"C": xmltree.Elem("home", xmltree.Text("zip", "2")),
	}
	if ok, _ := Eq(V("A"), V("B")).Eval(b); !ok {
		t.Fatal("structurally equal elements should compare equal")
	}
	if ok, _ := Eq(V("A"), V("C")).Eval(b); ok {
		t.Fatal("different elements should not compare equal")
	}
}

func TestCondVarsAndString(t *testing.T) {
	c := &And{L: Eq(V("A"), Lit("x")), R: &Or{L: &Not{C: True{}}, R: &LabelMatch{Var: "B", Label: "t"}}}
	vars := c.Vars()
	if len(vars) != 2 || vars[0] != "A" || vars[1] != "B" {
		t.Fatalf("Vars = %v", vars)
	}
	if s := c.String(); !strings.Contains(s, "AND") || !strings.Contains(s, "$A") {
		t.Fatalf("String = %q", s)
	}
}

func TestClassify(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	src2 := &Source{URL: "t", Var: "Y"}

	// qconc: concatenation of two sources is bounded browsable.
	qconc := &CreateElement{
		Input: &Concatenate{
			Input: &Join{Left: src, Right: src2, Cond: True{}},
			X:     "X", Y: "Y", Out: "Z",
		},
		Label: LabelSpec{Const: "r"}, Children: "Z", Out: "E",
	}
	// A product of two singleton sources involves no scanning: the
	// whole restructuring is bounded browsable (Example 1's q_conc).
	cls, _ := Classify(qconc, false)
	if cls != BoundedBrowsable {
		t.Fatalf("qconc-with-product class = %v", cls)
	}
	// A real join condition loses the bound.
	realJoin := &Join{Left: src, Right: src2, Cond: Eq(V("X"), V("Y"))}
	if cls, _ := Classify(realJoin, false); cls != Browsable {
		t.Fatalf("real join class = %v", cls)
	}
	// Grouping by {} is bounded; real grouping is not.
	g0 := &GroupBy{Input: src, By: nil, Var: "X", Out: "G"}
	if cls, _ := Classify(g0, false); cls != BoundedBrowsable {
		t.Fatalf("groupBy{} class = %v", cls)
	}
	g1 := &GroupBy{Input: realJoin, By: []string{"X"}, Var: "Y", Out: "G"}
	if cls, _ := Classify(g1, false); cls != Browsable {
		t.Fatalf("groupBy{X} class = %v", cls)
	}
	// Wildcard-chain paths mirror navigation: bounded without select.
	gdw := &GetDescendants{Input: src, Parent: "X", Path: pathexpr.MustParse("_._"), Out: "W"}
	if cls, _ := Classify(gdw, false); cls != BoundedBrowsable {
		t.Fatalf("wildcard-chain getDescendants class = %v", cls)
	}

	// Pure restructuring without join: bounded.
	pure := &CreateElement{Input: src, Label: LabelSpec{Const: "r"}, Children: "X", Out: "E"}
	if cls, culprit := Classify(pure, false); cls != BoundedBrowsable || culprit != nil {
		t.Fatalf("pure restructuring = %v (culprit %v)", cls, culprit)
	}

	// Selection: browsable; with native select(σ) and a label test: bounded.
	sel := &Select{Input: src, Cond: &LabelMatch{Var: "X", Label: "a"}}
	if cls, _ := Classify(sel, false); cls != Browsable {
		t.Fatalf("selection without native select = %v", cls)
	}
	if cls, _ := Classify(sel, true); cls != BoundedBrowsable {
		t.Fatalf("selection with native select = %v", cls)
	}
	// Value selections stay browsable even with native select.
	vsel := &Select{Input: src, Cond: Eq(V("X"), Lit("a"))}
	if cls, _ := Classify(vsel, true); cls != Browsable {
		t.Fatalf("value selection with native select = %v", cls)
	}

	// orderBy: unbrowsable, and it is the culprit.
	ob := &OrderBy{Input: sel, Keys: []string{"X"}}
	cls, culprit := Classify(ob, false)
	if cls != Unbrowsable || culprit != Op(ob) {
		t.Fatalf("orderBy = %v (culprit %T)", cls, culprit)
	}

	// difference: unbrowsable.
	diff := &Difference{Left: src, Right: &Source{URL: "t", Var: "X"}}
	if cls, _ := Classify(diff, false); cls != Unbrowsable {
		t.Fatalf("difference = %v", cls)
	}

	// getDescendants: recursive path is browsable even with select.
	gdr := &GetDescendants{Input: src, Parent: "X", Path: pathexpr.MustParse("a*.x"), Out: "Y"}
	if cls, _ := Classify(gdr, true); cls != Browsable {
		t.Fatalf("recursive getDescendants = %v", cls)
	}
	gdf := &GetDescendants{Input: src, Parent: "X", Path: pathexpr.MustParse("a.b"), Out: "Y"}
	if cls, _ := Classify(gdf, true); cls != BoundedBrowsable {
		t.Fatalf("fixed getDescendants with native select = %v", cls)
	}
	if cls, _ := Classify(gdf, false); cls != Browsable {
		t.Fatalf("fixed getDescendants without native select = %v", cls)
	}

	// Fig. 4 plan overall: browsable (join/groupBy), not unbrowsable.
	if cls, _ := Classify(fig4(), false); cls != Browsable {
		t.Fatalf("fig4 = %v", cls)
	}

	if BoundedBrowsable.String() == "" || Browsable.String() == "" || Unbrowsable.String() == "" ||
		Browsability(99).String() != "unknown" {
		t.Fatal("Browsability.String")
	}
}

func TestRewriteSelectPushdownThroughJoin(t *testing.T) {
	l := &Source{URL: "s", Var: "X"}
	r := &Source{URL: "t", Var: "Y"}
	p := &Select{
		Input: &Join{Left: l, Right: r, Cond: Eq(V("X"), V("Y"))},
		Cond:  Eq(V("X"), Lit("a")),
	}
	q := Rewrite(p)
	j, ok := q.(*Join)
	if !ok {
		t.Fatalf("want join at root, got %T:\n%s", q, String(q))
	}
	if _, ok := j.Left.(*Select); !ok {
		t.Fatalf("selection not pushed to left input:\n%s", String(q))
	}
	if err := Validate(q); err != nil {
		t.Fatalf("rewritten plan invalid: %v", err)
	}

	// Right-side condition pushes right.
	p2 := &Select{
		Input: &Join{Left: l, Right: r, Cond: True{}},
		Cond:  Eq(V("Y"), Lit("b")),
	}
	j2 := Rewrite(p2).(*Join)
	if _, ok := j2.Right.(*Select); !ok {
		t.Fatalf("selection not pushed to right input:\n%s", String(j2))
	}

	// Cross-side condition must not push.
	p3 := &Select{
		Input: &Join{Left: l, Right: r, Cond: True{}},
		Cond:  Eq(V("X"), V("Y")),
	}
	if _, ok := Rewrite(p3).(*Select); !ok {
		t.Fatalf("cross-side selection must stay above join:\n%s", String(Rewrite(p3)))
	}
}

func TestRewriteSelectPushdownThroughGetDescendants(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	gd := &GetDescendants{Input: src, Parent: "X", Path: pathexpr.MustParse("a"), Out: "Y"}
	// Condition on X only: pushes below.
	p := &Select{Input: gd, Cond: &LabelMatch{Var: "X", Label: "r"}}
	q := Rewrite(p)
	if _, ok := q.(*GetDescendants); !ok {
		t.Fatalf("selection not pushed below getDescendants: %T", q)
	}
	// Condition on Y: stays.
	p2 := &Select{Input: gd, Cond: &LabelMatch{Var: "Y", Label: "r"}}
	if _, ok := Rewrite(p2).(*Select); !ok {
		t.Fatal("selection on new var must not push")
	}
}

// TestRewriteSelectPushdownBelowConstructors: R2 pushes a selection
// below concatenate and createElement too, unless it reads the variable
// the operator introduces.
func TestRewriteSelectPushdownBelowConstructors(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	for _, op := range []Op{
		&Concatenate{Input: src, X: "X", Y: "X", Out: "Y"},
		&CreateElement{Input: src, Label: LabelSpec{Const: "e"}, Children: "X", Out: "Y"},
	} {
		q := Rewrite(&Select{Input: op, Cond: &LabelMatch{Var: "X", Label: "r"}})
		if _, ok := q.(*Select); ok {
			t.Fatalf("selection not pushed below %T:\n%s", op, String(q))
		}
		if err := Validate(q); err != nil {
			t.Fatalf("rewritten plan invalid: %v\n%s", err, String(q))
		}
		if _, ok := Rewrite(&Select{Input: op, Cond: &LabelMatch{Var: "Y", Label: "r"}}).(*Select); !ok {
			t.Fatalf("selection on %T's new variable must not push", op)
		}
	}
}

func TestRewriteMergeSelects(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	p := &Select{
		Input: &Select{Input: src, Cond: Eq(V("X"), Lit("a"))},
		Cond:  &LabelMatch{Var: "X", Label: "t"},
	}
	q := Rewrite(p)
	s, ok := q.(*Select)
	if !ok {
		t.Fatalf("want single select, got %T", q)
	}
	if _, ok := s.Cond.(*And); !ok {
		t.Fatalf("want AND condition, got %T", s.Cond)
	}
	if _, ok := s.Input.(*Source); !ok {
		t.Fatalf("cascade not fully merged: %T", s.Input)
	}
}

func TestRewriteOrderByCollapse(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	p := &OrderBy{Input: &OrderBy{Input: src, Keys: []string{"X"}}, Keys: []string{"X"}}
	q := Rewrite(p)
	ob, ok := q.(*OrderBy)
	if !ok {
		t.Fatalf("want orderBy, got %T", q)
	}
	if _, ok := ob.Input.(*Source); !ok {
		t.Fatal("inner orderBy not eliminated")
	}
	// An inner key the outer sort lacks orders its ties: both stay.
	gd := &GetDescendants{Input: src, Parent: "X", Path: pathexpr.MustParse("_"), Out: "Y"}
	p = &OrderBy{Input: &OrderBy{Input: gd, Keys: []string{"Y"}}, Keys: []string{"X"}}
	if q := Rewrite(p); String(q) != String(p) {
		t.Fatalf("orderBy[X](orderBy[Y]) rewrote to\n%s", String(q))
	}
	q = Rewrite(&OrderBy{Input: &OrderBy{Input: gd, Keys: []string{"Y"}}, Keys: []string{"X", "Y"}})
	if ob, ok := q.(*OrderBy); !ok || ob.Input != gd {
		t.Fatalf("orderBy[X,Y](orderBy[Y]) rewrote to\n%s", String(q))
	}
}

func TestRewriteProjectIdentity(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	p := &Project{Input: src, Keep: []string{"X"}}
	if _, ok := Rewrite(p).(*Source); !ok {
		t.Fatal("identity project not removed")
	}
	j := &Join{Left: src, Right: &Source{URL: "t", Var: "Y"}, Cond: True{}}
	p2 := &Project{Input: j, Keep: []string{"X"}}
	if _, ok := Rewrite(p2).(*Project); !ok {
		t.Fatal("real project must stay")
	}
}

func TestRewritePreservesUntouchedPlans(t *testing.T) {
	p := fig4()
	q := Rewrite(p)
	if OpCount(p) != OpCount(q) {
		t.Fatalf("fig4 rewrite changed op count %d → %d", OpCount(p), OpCount(q))
	}
	if err := Validate(q); err != nil {
		t.Fatal(err)
	}
}

func TestOpCount(t *testing.T) {
	if n := OpCount(fig4()); n != 13 {
		t.Fatalf("OpCount(fig4) = %d, want 13", n)
	}
}

func TestRewriteTrivialSelect(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	if _, ok := Rewrite(&Select{Input: src, Cond: True{}}).(*Source); !ok {
		t.Fatal("select(true) not eliminated")
	}
	s := Rewrite(&Select{Input: src, Cond: &And{L: True{}, R: Eq(V("X"), Lit("1"))}})
	sel, ok := s.(*Select)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if _, ok := sel.Cond.(*Cmp); !ok {
		t.Fatalf("AND with true not simplified: %v", sel.Cond)
	}
}

func TestRewriteDistinctIdempotent(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	q := Rewrite(&Distinct{Input: &Distinct{Input: src}})
	d, ok := q.(*Distinct)
	if !ok {
		t.Fatalf("got %T", q)
	}
	if _, ok := d.Input.(*Source); !ok {
		t.Fatal("nested distinct not collapsed")
	}
}

func TestRewriteProjectPushdownThroughJoin(t *testing.T) {
	l := &GetDescendants{Input: &Source{URL: "s", Var: "R1"},
		Parent: "R1", Path: pathexpr.MustParse("a"), Out: "X"}
	lk := &GetDescendants{Input: l, Parent: "X",
		Path: pathexpr.MustParse("k._"), Out: "KX"}
	r := &GetDescendants{Input: &Source{URL: "t", Var: "R2"},
		Parent: "R2", Path: pathexpr.MustParse("b"), Out: "Y"}
	rk := &GetDescendants{Input: r, Parent: "Y",
		Path: pathexpr.MustParse("k._"), Out: "KY"}
	j := &Join{Left: lk, Right: rk, Cond: Eq(V("KX"), V("KY"))}
	p := &Project{Input: j, Keep: []string{"X"}}

	q := Rewrite(p)
	if err := Validate(q); err != nil {
		t.Fatalf("rewritten invalid: %v\n%s", err, String(q))
	}
	// The projection must have reached both join inputs.
	pushedLeft, pushedRight := false, false
	Walk(q, func(op Op) {
		if pr, ok := op.(*Project); ok {
			if _, ok := pr.Input.(*GetDescendants); ok {
				set := varSet(pr.Keep)
				if set["KX"] && set["X"] && len(pr.Keep) == 2 {
					pushedLeft = true
				}
				if set["KY"] && len(pr.Keep) == 1 {
					pushedRight = true
				}
			}
		}
	})
	if !pushedLeft || !pushedRight {
		t.Fatalf("projection not split across the join:\n%s", String(q))
	}
	if got := q.OutVars(); len(got) != 1 || got[0] != "X" {
		t.Fatalf("output vars changed: %v", got)
	}
}
