package core

import (
	"testing"

	"mix/internal/nav"
	"mix/internal/trace"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

func benchEngine(b *testing.B, n int) (*Engine, map[string]*xmltree.Tree) {
	homes, schools := workload.HomesSchools(n, n, n/10+1, 42)
	e := New(DefaultOptions())
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	for name, t := range srcs {
		e.Register(name, nav.NewTreeDoc(t))
	}
	return e, srcs
}

// BenchmarkCompile: preprocessing cost — building the tree of lazy
// mediators (must be cheap: no source access).
func BenchmarkCompile(b *testing.B) {
	e, _ := benchEngine(b, 100)
	plan := workload.HomesSchoolsPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Compile(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstResult: time to the first med_home label.
func BenchmarkFirstResult(b *testing.B) {
	e, _ := benchEngine(b, 500)
	plan := workload.HomesSchoolsPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := e.Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nav.Labels(q.Document(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullMaterialize: complete lazy evaluation of the running
// example. With no tracer installed this must match the pre-trace
// baseline exactly — the nil-tracer compile path adds no wrappers and
// no allocations (compare against BenchmarkFullMaterializeTraced).
func BenchmarkFullMaterialize(b *testing.B) {
	e, _ := benchEngine(b, 200)
	plan := workload.HomesSchoolsPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := e.Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.Materialize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdJoinGroupBy: the med-home join + groupBy plan compiled
// and drained once per iteration over fresh sources — the cold operator
// path whose allocations (materialized join keys, source sibling steps,
// binding links, descent frames) the -benchmem columns pin.
func BenchmarkColdJoinGroupBy(b *testing.B) {
	homes, schools := workload.HomesSchools(400, 200, 200, 42)
	plan := workload.HomesSchoolsPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(DefaultOptions())
		e.Register("homesSrc", nav.NewTreeDoc(homes))
		e.Register("schoolsSrc", nav.NewTreeDoc(schools))
		q, err := e.Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.Materialize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullMaterializeTraced: the same evaluation with a recorder
// installed — the price of observability when it is switched on.
func BenchmarkFullMaterializeTraced(b *testing.B) {
	e, _ := benchEngine(b, 200)
	e.SetTracer(trace.New())
	plan := workload.HomesSchoolsPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := e.Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.Materialize(); err != nil {
			b.Fatal(err)
		}
		e.tracer.Take() // don't let the forest accumulate across iterations
	}
}
