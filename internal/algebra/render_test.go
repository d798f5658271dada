package algebra

import (
	"testing"

	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

// hostile is literal text free of '"' that a renderer could mangle:
// a newline, structure characters of the plan and tree notations, the
// arrow the renderer itself writes, non-ASCII, NUL and a backslash.
const hostile = "a\nb] [c → ü\x00\\d"

// TestRenderTable pins the rendering of every operator and condition
// kind byte for byte: fingerprints are these strings, so a renderer
// change that moved one byte would split the region cache's keys.
func TestRenderTable(t *testing.T) {
	src := &Source{URL: "homesSrc", Var: "R"}
	path := pathexpr.MustParse("homes.home")
	cases := []struct {
		name string
		op   Op
		want string
	}{
		{"source", src, "source[homesSrc→$R]"},
		{"getDescendants", &GetDescendants{Input: src, Parent: "R", Path: path, Out: "H"},
			"getDescendants[$R, homes.home → $H]"},
		{"getDescendants nil path", &GetDescendants{Input: src, Parent: "R", Out: "H"},
			"getDescendants[$R,  → $H]"},
		{"select cmp", &Select{Input: src, Cond: &Cmp{Op: OpGt, L: V("R"), R: Lit("91000")}},
			`select[$R > "91000"]`},
		{"select hostile", &Select{Input: src, Cond: Eq(V("R"), Lit(hostile))},
			`select[$R = "a\nb] [c → ü\x00\\d"]`},
		{"select empty literal", &Select{Input: src, Cond: &Cmp{Op: OpNeq, L: Lit(""), R: V("R")}},
			`select["" != $R]`},
		{"select ops", &Select{Input: src, Cond: &And{
			L: &Or{L: &Cmp{Op: OpLt, L: V("A"), R: V("B")}, R: &Cmp{Op: OpLe, L: V("A"), R: Lit("1")}},
			R: &Not{C: &Cmp{Op: OpGe, L: V("B"), R: Lit("2")}}}},
			`select[(($A < $B OR $A <= "1") AND NOT $B >= "2")]`},
		{"select label", &Select{Input: src, Cond: &LabelMatch{Var: "R", Label: hostile}},
			`select[label($R) = "a\nb] [c → ü\x00\\d"]`},
		{"select nil", &Select{Input: src}, "select[%!s(<nil>)]"},
		{"join true", &Join{Left: src, Right: src, Cond: True{}}, "join[true]"},
		{"join nil conjunct", &Join{Left: src, Right: src, Cond: &And{L: True{}}},
			"join[(true AND %!s(<nil>))]"},
		{"groupBy", &GroupBy{Input: src, By: []string{"A", "B"}, Var: "S", Out: "G"},
			"groupBy[{$A,$B} $S → $G]"},
		{"groupBy global", &GroupBy{Input: src, Var: "S", Out: "G"}, "groupBy[{} $S → $G]"},
		{"concatenate", &Concatenate{Input: src, X: "X", Y: "Y", Out: "Z"},
			"concatenate[$X,$Y → $Z]"},
		{"createElement const", &CreateElement{Input: src, Label: LabelSpec{Const: hostile}, Children: "C", Out: "E"},
			`createElement["a\nb] [c → ü\x00\\d", $C → $E]`},
		{"createElement var", &CreateElement{Input: src, Label: LabelSpec{Var: "L"}, Children: "C", Out: "E"},
			"createElement[$L, $C → $E]"},
		{"orderBy", &OrderBy{Input: src, Keys: []string{"A", "B"}}, "orderBy[$A,$B]"},
		{"project", &Project{Input: src, Keep: []string{"A"}}, "project[$A]"},
		{"union", &Union{Left: src, Right: src}, "union"},
		{"difference", &Difference{Left: src, Right: src}, "difference"},
		{"distinct", &Distinct{Input: src}, "distinct"},
		{"tupleDestroy", &TupleDestroy{Input: src, Var: "E"}, "tupleDestroy[$E]"},
		{"wrapList", &WrapList{Input: src, Var: "X", Out: "L"}, "wrapList[$X → $L]"},
		{"const", &Const{Input: src, Value: xmltree.Elem(xmltree.ListLabel, xmltree.Leaf(hostile)), Out: "T"},
			"const[list[" + hostile + "] → $T]"},
		{"const empty", &Const{Input: src, Value: xmltree.Elem(xmltree.ListLabel, xmltree.Leaf("")), Out: "T"},
			"const[list[] → $T]"},
		{"const nil", &Const{Input: src, Out: "T"}, "const[⊥ → $T]"},
		{"rename", &Rename{Input: src, From: "A", To: "B"}, "rename[$A → $B]"},
	}
	var buf [2]Op
	for _, c := range cases {
		if got := String(c.op); len(inputs(c.op, &buf)) == 0 && got != c.want+"\n" {
			t.Errorf("%s: String = %q, want %q", c.name, got, c.want+"\n")
		}
		if got := string(c.op.appendOp(nil)); got != c.want {
			t.Errorf("%s: rendered %q, want %q", c.name, got, c.want)
		}
	}
	plan := &TupleDestroy{Var: "E", Input: &Join{Cond: True{},
		Left:  &Select{Input: src, Cond: Eq(V("R"), Lit("x"))},
		Right: &Distinct{Input: src}}}
	want := "tupleDestroy[$E]\n" +
		"  join[true]\n" +
		"    select[$R = \"x\"]\n" +
		"      source[homesSrc→$R]\n" +
		"    distinct\n" +
		"      source[homesSrc→$R]\n"
	if got := String(plan); got != want {
		t.Errorf("String(plan) = %q, want %q", got, want)
	}
}
