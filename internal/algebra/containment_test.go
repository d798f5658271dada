package algebra_test

import (
	"testing"

	"mix/internal/algebra"
	"mix/internal/regioncache"
	"mix/internal/xmas"
)

// canon translates XMAS text and canonicalizes the plan as the region
// cache does before it asks for containment.
func canon(t *testing.T, text string) algebra.Op {
	t.Helper()
	q, err := xmas.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Translate()
	if err != nil {
		t.Fatal(err)
	}
	c, _, ok := regioncache.Canonical(p)
	if !ok {
		t.Fatal("no canonical form")
	}
	return c
}

// TestContains: the simple entry point returns a true residual and the
// group path's label test, and refuses the wider query.
func TestContains(t *testing.T) {
	super := canon(t, `CONSTRUCT <r> $B {$B} </r> {} WHERE src bib._ $B`)
	sub := canon(t, `CONSTRUCT <r> $B {$B} </r> {} WHERE src bib.book $B`)
	residual, paths, ok := algebra.Contains(super, sub)
	if !ok || residual.String() != "true" || len(paths) != 1 ||
		paths[0].Super.String() != "bib._" || paths[0].Sub.String() != "book" {
		t.Fatalf("Contains = %v, %+v, %v; want true, [bib._ → book], true", residual, paths, ok)
	}
	if _, _, ok := algebra.Contains(sub, super); ok {
		t.Fatal("the wider query is contained in the narrower one")
	}
}

// TestAnalyzeRejectsOtherShapes: Analyze knows one answer shape, a
// tupleDestroy over constant-label elements down to a groupBy by {}.
// No XMAS text writes anything else, so these plans are built by hand.
func TestAnalyzeRejectsOtherShapes(t *testing.T) {
	p := canon(t, `CONSTRUCT <r> $B {$B} </r> {} WHERE src bib.book $B`)
	body := p.(*algebra.TupleDestroy).Input
	for name, pair := range map[string][2]algebra.Op{
		"binding lists":   {body, body},
		"bindings in sub": {p, body},
		"source under the root": {p, &algebra.TupleDestroy{
			Input: &algebra.Source{URL: "src", Var: "v0"}, Var: "v0"}},
		"variable label": {&algebra.TupleDestroy{Input: &algebra.CreateElement{
			Input: &algebra.Source{URL: "src", Var: "v0"},
			Label: algebra.LabelSpec{Var: "v0"}, Children: "v0", Out: "v1"}, Var: "v1"}, p},
	} {
		if _, ok := algebra.Analyze(pair[0], pair[1]); ok {
			t.Errorf("%s: contained", name)
		}
	}
}
