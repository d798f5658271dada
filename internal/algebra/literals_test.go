package algebra

import (
	"testing"

	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

// TestBindLiterals: BindLiterals replaces the mapped literals of
// comparisons, nested in any junction, and of const trees; it leaves
// variables, unmapped literals and the input plan alone, and shares
// every operator with no mapped literal below it.
func TestBindLiterals(t *testing.T) {
	src := &Source{URL: "s", Var: "R"}
	scan := &GetDescendants{Input: src, Parent: "R", Path: pathexpr.MustParse("a"), Out: "A"}
	other := &Select{Input: &Source{URL: "t", Var: "T"}, Cond: Eq(V("T"), Lit("keep"))}
	sel := &Select{Input: scan, Cond: &And{
		L: &Or{L: Eq(V("A"), Lit("s0")), R: &Not{C: &Cmp{Op: OpLt, L: Lit("s1"), R: V("A")}}},
		R: Eq(V("A"), Lit("keep"))}}
	cst := &Const{Input: sel, Out: "C",
		Value: xmltree.Elem(xmltree.ListLabel, xmltree.Leaf("s2"), xmltree.Leaf("keep"))}
	plan := &Join{Left: cst, Right: other, Cond: True{}}
	before := String(plan)

	lits := map[string]string{"s0": "x", "s1": "", "s2": "a\nb]"}
	got := BindLiterals(plan, lits)
	want := String(&Join{Cond: True{}, Right: other, Left: &Const{Out: "C",
		Value: xmltree.Elem(xmltree.ListLabel, xmltree.Leaf("a\nb]"), xmltree.Leaf("keep")),
		Input: &Select{Input: scan, Cond: &And{
			L: &Or{L: Eq(V("A"), Lit("x")), R: &Not{C: &Cmp{Op: OpLt, L: Lit(""), R: V("A")}}},
			R: Eq(V("A"), Lit("keep"))}}}})
	if s := String(got); s != want {
		t.Fatalf("bound plan\n%s\nwant\n%s", s, want)
	}
	if String(plan) != before {
		t.Fatal("BindLiterals modified its input")
	}
	j := got.(*Join)
	if j.Right != other || j.Left.(*Const).Input.(*Select).Input != scan {
		t.Fatal("an operator with no mapped literal below it was copied")
	}
	if BindLiterals(plan, map[string]string{"absent": "x"}) != plan {
		t.Fatal("a plan with no mapped literal was copied")
	}
}
