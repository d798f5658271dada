package algebra

import (
	"sort"
	"strings"
	"testing"

	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

func TestHelperOpsSurface(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	w := &WrapList{Input: src, Var: "X", Out: "L"}
	c := &Const{Input: w, Value: xmltree.Leaf("k"), Out: "C"}
	r := &Rename{Input: c, From: "C", To: "D"}

	if got := r.OutVars(); len(got) != 3 || got[2] != "D" {
		t.Fatalf("rename OutVars = %v", got)
	}
	var buf [2]Op
	if len(inputs(w, &buf)) != 1 || len(inputs(c, &buf)) != 1 || len(inputs(r, &buf)) != 1 {
		t.Fatal("Inputs arity")
	}
	if err := Validate(r); err != nil {
		t.Fatal(err)
	}
	s := String(r)
	for _, want := range []string{"wrapList[$X → $L]", "const[", "rename[$C → $D]"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
	// Identity rename keeps the variable set.
	ident := &Rename{Input: src, From: "X", To: "X"}
	if err := Validate(ident); err != nil {
		t.Fatalf("identity rename: %v", err)
	}
	// Invalid helpers.
	bad := []Op{
		&WrapList{Input: src, Var: "nope", Out: "L"},
		&WrapList{Input: src, Var: "X", Out: "X"},
		&Const{Input: src, Out: "C"},
		&Const{Input: src, Value: xmltree.Leaf("k"), Out: "X"},
		&Rename{Input: src, From: "nope", To: "Y"},
	}
	for i, p := range bad {
		if err := Validate(p); err == nil {
			t.Errorf("bad helper %d validated", i)
		}
	}
}

func TestOutVarsAllOps(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	src2 := &Source{URL: "t", Var: "Y"}
	cases := []struct {
		op   Op
		want []string
	}{
		{&GroupBy{Input: src, By: []string{"X"}, Var: "X", Out: "G"}, []string{"X", "G"}},
		{&Concatenate{Input: &Join{Left: src, Right: src2, Cond: True{}}, X: "X", Y: "Y", Out: "Z"},
			[]string{"X", "Y", "Z"}},
		{&CreateElement{Input: src, Label: LabelSpec{Const: "e"}, Children: "X", Out: "E"},
			[]string{"X", "E"}},
		{&OrderBy{Input: src, Keys: []string{"X"}}, []string{"X"}},
		{&Union{Left: src, Right: &Source{URL: "t", Var: "X"}}, []string{"X"}},
		{&Difference{Left: src, Right: &Source{URL: "t", Var: "X"}}, []string{"X"}},
		{&Distinct{Input: src}, []string{"X"}},
		{&Select{Input: src, Cond: True{}}, []string{"X"}},
	}
	for _, c := range cases {
		got := c.op.OutVars()
		a, b := append([]string{}, got...), append([]string{}, c.want...)
		sort.Strings(a)
		sort.Strings(b)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%T OutVars = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestRenameVarsFullPlan(t *testing.T) {
	// Build a plan touching every operator kind, rename all vars, and
	// check validity plus absence of old names.
	src := &Source{URL: "s", Var: "X"}
	gd := &GetDescendants{Input: src, Parent: "X", Path: pathexpr.MustParse("a"), Out: "Y"}
	sel := &Select{Input: gd, Cond: &And{
		L: Eq(V("Y"), Lit("1")),
		R: &Or{L: &Not{C: &LabelMatch{Var: "Y", Label: "a"}}, R: True{}},
	}}
	j := &Join{Left: sel, Right: &Source{URL: "t", Var: "Z"}, Cond: Eq(V("Y"), V("Z"))}
	grp := &GroupBy{Input: j, By: []string{"X"}, Var: "Y", Out: "G"}
	cc := &Concatenate{Input: grp, X: "X", Y: "G", Out: "CC"}
	ce := &CreateElement{Input: cc, Label: LabelSpec{Var: "X"}, Children: "CC", Out: "E"}
	ob := &OrderBy{Input: ce, Keys: []string{"E"}}
	pj := &Project{Input: ob, Keep: []string{"E", "X"}}
	un := &Union{Left: pj, Right: pj}
	df := &Difference{Left: un, Right: un}
	ds := &Distinct{Input: df}
	wl := &WrapList{Input: ds, Var: "E", Out: "W"}
	ko := &Const{Input: wl, Value: xmltree.Leaf("c"), Out: "K"}
	rn := &Rename{Input: ko, From: "K", To: "K2"}
	td := &TupleDestroy{Input: rn, Var: "E"}

	if err := Validate(td); err != nil {
		t.Fatalf("base plan invalid: %v", err)
	}
	renamed, err := RenameVars(td, func(v string) string { return "p~" + v })
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(renamed); err != nil {
		t.Fatalf("renamed plan invalid: %v", err)
	}
	s := String(renamed)
	if strings.Contains(s, "$X") && !strings.Contains(s, "$p~X") {
		t.Fatalf("old names survive:\n%s", s)
	}
	if !strings.Contains(s, "p~E") || !strings.Contains(s, "p~K2") {
		t.Fatalf("renaming incomplete:\n%s", s)
	}
	// Plan structure preserved.
	if OpCount(renamed) != OpCount(td) {
		t.Fatal("rename changed plan size")
	}
}

func TestCompareExported(t *testing.T) {
	if Compare("9", "10") >= 0 {
		t.Fatal("numeric compare")
	}
	if Compare("abc", "abd") >= 0 {
		t.Fatal("lexicographic compare")
	}
	if Compare("5", "5") != 0 {
		t.Fatal("equality")
	}
}

func TestIsSingletonCases(t *testing.T) {
	src := &Source{URL: "s", Var: "X"}
	singles := []Op{
		src,
		&GroupBy{Input: src, By: nil, Var: "X", Out: "G"},
		&Join{Left: src, Right: &Source{URL: "t", Var: "Y"}, Cond: True{}},
		&Distinct{Input: src},
		&Project{Input: src, Keep: []string{"X"}},
		&WrapList{Input: src, Var: "X", Out: "L"},
		&Const{Input: src, Value: xmltree.Leaf("v"), Out: "C"},
		&Rename{Input: src, From: "X", To: "Y"},
		&CreateElement{Input: src, Label: LabelSpec{Const: "e"}, Children: "X", Out: "E"},
	}
	for i, p := range singles {
		if !isSingleton(p) {
			t.Errorf("case %d (%T) should be singleton", i, p)
		}
	}
	multi := []Op{
		&GetDescendants{Input: src, Parent: "X", Path: pathexpr.MustParse("a"), Out: "Y"},
		&GroupBy{Input: src, By: []string{"X"}, Var: "X", Out: "G"},
		&Join{Left: src, Right: &Source{URL: "t", Var: "Y"}, Cond: Eq(V("X"), V("Y"))},
		&Union{Left: src, Right: &Source{URL: "t", Var: "X"}},
		&OrderBy{Input: src, Keys: []string{"X"}},
	}
	for i, p := range multi {
		if isSingleton(p) {
			t.Errorf("case %d (%T) should not be singleton", i, p)
		}
	}
}

func TestRewriteThroughHelperOps(t *testing.T) {
	// MapInputs must rebuild helper operators too: rewrite below them.
	src := &Source{URL: "s", Var: "X"}
	inner := &Select{Input: &Select{Input: src, Cond: Eq(V("X"), Lit("1"))},
		Cond: Eq(V("X"), Lit("2"))}
	plan := &Rename{
		Input: &Const{
			Input: &WrapList{Input: inner, Var: "X", Out: "L"},
			Value: xmltree.Leaf("c"), Out: "C",
		},
		From: "C", To: "D",
	}
	q := Rewrite(plan)
	// The cascaded selects below the helpers must have merged.
	merged := false
	Walk(q, func(op Op) {
		if s, ok := op.(*Select); ok {
			if _, ok := s.Cond.(*And); ok {
				merged = true
			}
		}
	})
	if !merged {
		t.Fatalf("selects below helper ops not merged:\n%s", String(q))
	}
	if err := Validate(q); err != nil {
		t.Fatal(err)
	}
}
