package algebra

import (
	"fmt"
	"strings"
	"testing"

	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

// TestStructuralWalkEveryOperator pins the package's one switch over
// operator inputs, for all 16 operator types: inputs lists an
// operator's inputs in order, MapInputs rebuilds an operator that
// renders like the original apart from its new inputs, and an operator
// whose inputs come back unchanged is returned as is.
func TestStructuralWalkEveryOperator(t *testing.T) {
	l, r := &Source{URL: "old0", Var: "A"}, &Source{URL: "old1", Var: "B"}
	ops := []Op{
		&Source{URL: "s", Var: "X"},
		&GetDescendants{Input: l, Parent: "A", Path: pathexpr.MustParse("homes.home"), Out: "H"},
		&Select{Input: l, Cond: Eq(V("A"), Lit("x"))},
		&Join{Left: l, Right: r, Cond: Eq(V("A"), V("B"))},
		&GroupBy{Input: l, By: []string{"A"}, Var: "A", Out: "G"},
		&Concatenate{Input: l, X: "A", Y: "A", Out: "C"},
		&CreateElement{Input: l, Label: LabelSpec{Const: "e"}, Children: "A", Out: "E"},
		&OrderBy{Input: l, Keys: []string{"A"}},
		&Project{Input: l, Keep: []string{"A"}},
		&Union{Left: l, Right: r},
		&Difference{Left: l, Right: r},
		&Distinct{Input: l},
		&TupleDestroy{Input: l, Var: "A"},
		&WrapList{Input: l, Var: "A", Out: "L"},
		&Const{Input: l, Value: xmltree.Leaf("k"), Out: "K"},
		&Rename{Input: l, From: "A", To: "Z"},
	}
	types := map[string]bool{}
	for _, op := range ops {
		types[fmt.Sprintf("%T", op)] = true
	}
	if len(types) != 16 {
		t.Fatalf("the table covers %d operator types, want all 16", len(types))
	}
	// The two-input operators take l then r; the rest take l; a source
	// takes none.
	arity := map[int]int{0: 0, 3: 2, 9: 2, 10: 2}
	for i, op := range ops {
		name := fmt.Sprintf("%T", op)
		var buf [2]Op
		ins := inputs(op, &buf)
		want, ok := arity[i]
		if !ok {
			want = 1
		}
		if len(ins) != want || want > 0 && ins[0] != l || want > 1 && ins[1] != r {
			t.Errorf("%s: inputs = %v, want %d in order (left, right)", name, ins, want)
			continue
		}

		var seen []Op
		q := MapInputs(op, func(in Op) Op {
			seen = append(seen, in)
			s := in.(*Source)
			return &Source{URL: strings.Replace(s.URL, "old", "new", 1), Var: s.Var}
		})
		if len(seen) != want {
			t.Errorf("%s: MapInputs visited %d inputs, want %d", name, len(seen), want)
		}
		if wantStr := strings.ReplaceAll(String(op), "old", "new"); String(q) != wantStr {
			t.Errorf("%s: rebuilt\n%s\nwant\n%s", name, String(q), wantStr)
		}
		if want > 0 && q == op {
			t.Errorf("%s: new inputs returned the original operator", name)
		}
		if same := MapInputs(op, func(in Op) Op { return in }); same != op {
			t.Errorf("%s: unchanged inputs rebuilt the operator", name)
		}
	}
}
