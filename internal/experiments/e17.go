package experiments

import (
	"strings"
	"time"

	"mix/internal/algebra"
	"mix/internal/core"
	"mix/internal/nav"
	"mix/internal/trace"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// E17BatchPipeline measures what vectorization buys on the pipeline's
// own bookkeeping: a warm-drain equi-join (zipJoinPlan over 300 homes ×
// 300 schools, full materialization), run
// binding-at-a-time (width 1) vs. batch-at-a-time. The per-binding interpreter
// costs — one traced stream step per binding per operator, plus the
// join-condition evaluations — collapse when each pull moves a whole
// batch, while the navigation-driven contract stays untouched: same
// answer bytes, same source navigations, same condition evaluations.
func E17BatchPipeline() Table {
	t := Table{
		ID:    "E17",
		Title: "Vectorized binding streams (batch-at-a-time operator pipeline)",
		Claim: "Moving bindings through the operator tree a batch at a time cuts " +
			"per-binding interpreter calls (stream steps + condition evaluations) " +
			"at least 2× on a full warm drain, with the answer, the source " +
			"navigations, and the condition evaluations byte-for-byte unchanged.",
		Expect: "≥2× fewer interpreter calls with batching; source navigations and " +
			"condition evaluations equal in both modes; identical answer.",
		Headers: []string{"case", "metric", "width 1", "batch", "improvement"},
	}
	t.Rows, t.Timings = batchPipelineRows()
	return t
}

// batchPipelineRows runs the E13 warm-drain join once per width. A
// span sink counts operator stream steps: every "next[n]" span is one
// interpreter dispatch through the operator tree (source-boundary spans
// carry navigation ops, not "next", so they are not counted — they are
// reported separately and must not change). The drain's wall-clock row
// is returned apart from the count rows.
func batchPipelineRows() (rows, timings [][]string) {
	homes, schools := workload.HomesSchools(300, 300, 40, 9)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	run := func(bs int) (steps, evals, navs int64, batches, bindings int64,
		elapsed time.Duration, got *xmltree.Tree) {
		opts := core.DefaultOptions()
		opts.BatchSize = bs
		e := core.New(opts)
		rec := trace.New()
		rec.Limit = 1 // the sink does the counting; retain almost nothing
		rec.Sink = func(label, op string, d time.Duration) {
			if strings.HasPrefix(op, "next") && !strings.HasPrefix(label, trace.SourcePrefix) {
				steps++
			}
		}
		e.SetTracer(rec)
		counters := map[string]*nav.CountingDoc{}
		for name, tree := range srcs {
			cd := nav.NewCountingDoc(nav.NewTreeDoc(tree))
			counters[name] = cd
			e.Register(name, cd)
		}
		var jn int64
		q, err := e.Compile(zipJoinPlan(&jn))
		if err != nil {
			panic(err)
		}
		before := core.BatchSnapshot()
		start := time.Now()
		got, err = q.Materialize()
		if err != nil {
			panic(err)
		}
		elapsed = time.Since(start)
		after := core.BatchSnapshot()
		return steps, jn, totalNavs(counters),
			after.Batches - before.Batches, after.Bindings - before.Bindings,
			elapsed, got
	}
	s0, e0, n0, _, _, d0, g0 := run(1)
	s1, e1, n1, bb, bn, d1, g1 := run(core.DefaultBatchSize)
	same := "yes"
	if !xmltree.Equal(g0, g1) {
		same = "NO"
	}
	navSame := "yes"
	if n0 != n1 {
		navSame = "NO"
	}
	width := "-"
	if bb > 0 {
		width = itoa(bn / bb)
	}
	rows = [][]string{
		{"warm-drain join", "operator stream steps", itoa(s0), itoa(s1),
			ratio(float64(s0), float64(s1))},
		{"warm-drain join", "condition evaluations", itoa(e0), itoa(e1),
			ratio(float64(e0), float64(e1))},
		{"warm-drain join", "interpreter calls (steps+evals)",
			itoa(s0 + e0), itoa(s1 + e1),
			ratio(float64(s0+e0), float64(s1+e1))},
		{"warm-drain join", "source navigations", itoa(n0), itoa(n1), navSame},
		{"warm-drain join", "avg bindings per batch", "1", width, "-"},
		{"warm-drain join", "identical answer", same, same, "="},
	}
	timings = [][]string{
		{"warm-drain join", "drain wall-clock (ms)",
			itoa(d0.Milliseconds()), itoa(d1.Milliseconds()),
			ratio(float64(d0), float64(d1))},
	}
	return rows, timings
}

// zipJoinPlan is the Fig. 4 equi-join shape over homes and schools with
// a countable join condition: H ⋈ S on zip equality, projected to the
// pair. jn counts condition evaluations.
func zipJoinPlan(jn *int64) algebra.Op {
	left := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "homesSrc", Var: "r1"},
		Parent: "r1", Path: mustPath("home"), Out: "H",
	}
	leftZip := &algebra.GetDescendants{Input: left, Parent: "H",
		Path: mustPath("zip._"), Out: "V1"}
	right := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "schoolsSrc", Var: "r2"},
		Parent: "r2", Path: mustPath("school"), Out: "S",
	}
	rightZip := &algebra.GetDescendants{Input: right, Parent: "S",
		Path: mustPath("zip._"), Out: "V2"}
	cond := &countingCond{inner: algebra.Eq(algebra.V("V1"), algebra.V("V2")), n: jn}
	return &algebra.Project{
		Input: &algebra.Join{Left: leftZip, Right: rightZip, Cond: cond},
		Keep:  []string{"H", "S"},
	}
}
