package core

import (
	"strconv"
	"testing"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// evalCountCond counts condition evaluations and forwards the equi-key
// extraction, so tests can tell a probing hash join (≈candidate pairs)
// from an N·M nested loop.
type evalCountCond struct {
	inner algebra.Cond
	n     int
}

func (c *evalCountCond) Eval(b algebra.ValueGetter) (bool, error) {
	c.n++
	return c.inner.Eval(b)
}
func (c *evalCountCond) Vars() []string        { return c.inner.Vars() }
func (c *evalCountCond) EquiKeys() [][2]string { return c.inner.EquiKeys() }
func (c *evalCountCond) String() string        { return c.inner.String() }

// maskedCond hides the equi keys of its inner condition, forcing the
// nested-loops fallback with unchanged semantics.
type maskedCond struct{ algebra.Cond }

func (maskedCond) EquiKeys() [][2]string { return nil }

// hashZipPlan joins homesSrc and schoolsSrc on the given condition
// (which bridges V1 and V2 when it is an equality), projecting the
// home/school pair.
func hashZipPlan(cond algebra.Cond) algebra.Op {
	left := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "homesSrc", Var: "r1"},
		Parent: "r1", Path: pathexpr.MustParse("home"), Out: "H",
	}
	leftZip := &algebra.GetDescendants{Input: left, Parent: "H",
		Path: pathexpr.MustParse("zip._"), Out: "V1"}
	right := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "schoolsSrc", Var: "r2"},
		Parent: "r2", Path: pathexpr.MustParse("school"), Out: "S",
	}
	rightZip := &algebra.GetDescendants{Input: right, Parent: "S",
		Path: pathexpr.MustParse("zip._"), Out: "V2"}
	return &algebra.Project{
		Input: &algebra.Join{Left: leftZip, Right: rightZip, Cond: cond},
		Keep:  []string{"H", "S"},
	}
}

// TestHashJoinByteIdenticalToNested runs each join plan through the
// hash join and, with its equi keys masked, through the nested-loops
// fallback: same bindings, same order, byte for byte.
func TestHashJoinByteIdenticalToNested(t *testing.T) {
	homes, schools := workload.HomesSchools(40, 40, 7, 21)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	eq := func() algebra.Cond { return algebra.Eq(algebra.V("V1"), algebra.V("V2")) }
	conds := map[string]func() algebra.Cond{
		"pure equi": eq,
		"equi with residual": func() algebra.Cond {
			return &algebra.And{
				L: eq(),
				R: &algebra.Not{C: algebra.Eq(algebra.V("V1"), algebra.Lit("91003"))},
			}
		},
	}
	for name, cond := range conds {
		run := func(c algebra.Cond) string {
			e, _ := engineWith(DefaultOptions(), srcs)
			return xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, e, hashZipPlan(c))))
		}
		if nested, hash := run(maskedCond{cond()}), run(cond()); nested != hash {
			t.Errorf("%s: hash join answer differs from nested loops:\n%s\nvs\n%s",
				name, hash, nested)
		}
	}
}

// TestHashJoinEvalCounts pins the condition evaluations of the zip
// equi-join of 60 homes × 60 schools: the hash join evaluates only
// bucket-colliding pairs, while a condition that hides its equi keys
// falls back to nested loops and evaluates all N·M pairs.
func TestHashJoinEvalCounts(t *testing.T) {
	const n = 60
	homes, schools := workload.HomesSchools(n, n, 10, 22)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	run := func(cond algebra.Cond) int {
		cc := &evalCountCond{inner: cond}
		e, _ := engineWith(DefaultOptions(), srcs)
		mustMaterialize(t, mustCompile(t, e, hashZipPlan(cc)))
		return cc.n
	}
	eq := algebra.Eq(algebra.V("V1"), algebra.V("V2"))
	if got := run(eq); got != 375 {
		t.Errorf("hash join evaluated the condition %d times, want 375", got)
	}
	if got := run(maskedCond{eq}); got != n*n {
		t.Errorf("masked condition evaluated %d times, want the nested-loops %d", got, n*n)
	}
}

// TestHashJoinIndexIsIncremental: answering the first join pair must
// not drain the whole inner source — the index ingests only as much of
// the inner stream as the first probe needs.
func TestHashJoinIndexIsIncremental(t *testing.T) {
	homes := xmltree.Elem("homes",
		xmltree.Elem("home", xmltree.Text("zip", "1")))
	schools := xmltree.Elem("schools")
	const m = 100
	for i := 0; i < m; i++ {
		schools.Children = append(schools.Children,
			xmltree.Elem("school", xmltree.Text("zip", "1"),
				xmltree.Text("name", "s"+strconv.Itoa(i))))
	}
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	e, counters := engineWith(DefaultOptions(), srcs)
	q := mustCompile(t, e, hashZipPlan(algebra.Eq(algebra.V("V1"), algebra.V("V2"))))
	if _, err := nav.Labels(q.Document(), 1); err != nil {
		t.Fatal(err)
	}
	first := counters["schoolsSrc"].Counters.Navigations()
	mustMaterialize(t, q)
	full := counters["schoolsSrc"].Counters.Navigations()
	if 4*first > full {
		t.Fatalf("first result cost %d of %d inner navigations; the index is not incremental", first, full)
	}
}

// TestEquiJoinKeysBridging: only pairs that bridge the two inputs make
// a join hashable; one-sided equalities are left to the residual.
func TestEquiJoinKeysBridging(t *testing.T) {
	join := func(cond algebra.Cond) *algebra.Join {
		return hashZipPlan(cond).(*algebra.Project).Input.(*algebra.Join)
	}
	lk, rk, ok := equiJoinKeys(join(algebra.Eq(algebra.V("V1"), algebra.V("V2"))))
	if !ok || len(lk) != 1 || lk[0] != "V1" || rk[0] != "V2" {
		t.Fatalf("bridging pair not found: %v %v %v", lk, rk, ok)
	}
	// Orientation is normalized even when the condition is written
	// inner-first.
	lk, rk, ok = equiJoinKeys(join(algebra.Eq(algebra.V("V2"), algebra.V("V1"))))
	if !ok || lk[0] != "V1" || rk[0] != "V2" {
		t.Fatalf("flipped pair not normalized: %v %v %v", lk, rk, ok)
	}
	// Both variables on one side: nothing to bridge with.
	if _, _, ok := equiJoinKeys(join(algebra.Eq(algebra.V("V1"), algebra.V("H")))); ok {
		t.Fatal("one-sided equality must not enable the hash join")
	}
	if _, _, ok := equiJoinKeys(join(algebra.True{})); ok {
		t.Fatal("products must not enable the hash join")
	}
}
