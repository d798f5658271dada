package core

import (
	"testing"

	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/trace"
	"mix/internal/workload"
)

// TestTraceTotalsMatchCounters drives client navigations over a traced
// engine whose sources are counting-wrapped, and checks — navigation by
// navigation — that the trace's source-navigation totals equal the
// counter deltas at the same boundary. This is the invariant behind
// `mixq -trace`: the fan-out tree is an attribution of exactly the
// navigations the counters measure.
func TestTraceTotalsMatchCounters(t *testing.T) {
	t.Run("defaults", func(t *testing.T) { traceTotalsMatchCounters(t, DefaultOptions()) })
	// GroupCache off: the group value lists pull forks of traced cursors.
	t.Run("uncached groups", func(t *testing.T) { traceTotalsMatchCounters(t, Options{JoinCache: true}) })
}

func traceTotalsMatchCounters(t *testing.T, opts Options) {
	homes, schools := workload.HomesSchools(8, 8, 3, 7)
	rec := trace.New()
	e := New(opts)
	e.SetTracer(rec)
	counters := map[string]*nav.CountingDoc{
		"homesSrc":   nav.NewCountingDoc(nav.NewTreeDoc(homes)),
		"schoolsSrc": nav.NewCountingDoc(nav.NewTreeDoc(schools)),
	}
	for name, cd := range counters {
		e.Register(name, cd)
	}
	q, err := e.Compile(workload.HomesSchoolsPlan())
	if err != nil {
		t.Fatal(err)
	}
	// The client document is traced too, so every client command roots
	// a span tree.
	doc := trace.NewDoc(q.Document(), trace.ClientLabel, rec)

	snap := func() metrics.Snapshot {
		var s metrics.Snapshot
		for _, cd := range counters {
			c := cd.Counters.Snapshot()
			s.Down += c.Down
			s.Right += c.Right
			s.Fetch += c.Fetch
			s.Select += c.Select
			s.Root += c.Root
		}
		return s
	}

	check := func(step string, navigate func() (nav.ID, error)) nav.ID {
		t.Helper()
		before := snap()
		id, err := navigate()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		roots := rec.Take()
		delta := snap().Sub(before)
		totals := trace.SourceTotals(roots)
		if totals["d"] != delta.Down || totals["r"] != delta.Right ||
			totals["f"] != delta.Fetch || totals["select"] != delta.Select ||
			totals["root"] != delta.Root {
			t.Fatalf("%s: trace totals %v != counter delta %+v\n%s",
				step, totals, delta, trace.Format(roots))
		}
		return id
	}

	root := check("root", doc.Root)
	cur := check("down", func() (nav.ID, error) { return doc.Down(root) })
	check("fetch", func() (nav.ID, error) { _, err := doc.Fetch(cur); return nil, err })
	cur = check("down2", func() (nav.ID, error) { return doc.Down(cur) })
	for cur != nil {
		next := check("right", func() (nav.ID, error) { return doc.Right(cur) })
		if next != nil {
			check("fetch-sib", func() (nav.ID, error) { _, err := doc.Fetch(next); return nil, err })
		}
		cur = next
	}
}

// TestTraceShowsOperatorFanOut checks the causal structure: a client
// navigation's span tree nests operator pulls above source navigations.
func TestTraceShowsOperatorFanOut(t *testing.T) {
	homes, schools := workload.HomesSchools(5, 5, 2, 3)
	rec := trace.New()
	e := New(DefaultOptions())
	e.SetTracer(rec)
	e.Register("homesSrc", nav.NewTreeDoc(homes))
	e.Register("schoolsSrc", nav.NewTreeDoc(schools))
	q, err := e.Compile(workload.HomesSchoolsPlan())
	if err != nil {
		t.Fatal(err)
	}
	doc := trace.NewDoc(q.Document(), trace.ClientLabel, rec)
	root, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	rec.Take() // root is lazy: discard its (empty) trace
	if _, err := doc.Down(root); err != nil {
		t.Fatal(err)
	}
	roots := rec.Take()
	if len(roots) != 1 || roots[0].Label != trace.ClientLabel {
		t.Fatalf("want one client root, got:\n%s", trace.Format(roots))
	}
	sum := trace.Summarize(roots)
	var sawOperator, sawSource bool
	for _, s := range sum {
		// Operator spans are "next" pulls.
		if s.Op == "next" && s.Label != trace.ClientLabel {
			sawOperator = true
		}
		if s.Label == trace.SourcePrefix+"homesSrc" || s.Label == trace.SourcePrefix+"schoolsSrc" {
			sawSource = true
		}
	}
	if !sawOperator || !sawSource {
		t.Fatalf("fan-out missing operator or source spans:\n%s", trace.Format(roots))
	}
	if n := trace.SourceNavigations(roots); n == 0 {
		t.Fatal("first down induced no source navigations")
	}
}

// TestUntracedEngineHasNoWrappers ensures the zero-cost default: with
// no tracer installed nothing about compilation changes (the traced
// benchmark comparison in bench_test.go quantifies this; here we just
// pin the nil-tracer path through a full evaluation).
func TestUntracedEngineHasNoWrappers(t *testing.T) {
	homes, schools := workload.HomesSchools(5, 5, 2, 3)
	e := New(DefaultOptions())
	e.Register("homesSrc", nav.NewTreeDoc(homes))
	e.Register("schoolsSrc", nav.NewTreeDoc(schools))
	q, err := e.Compile(workload.HomesSchoolsPlan())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Materialize(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetIdentityReachesEngineRoots pins the contract the server's
// fleet path relies on: arm a session recorder with a remote trace
// context (and a node name) before a client command enters the engine,
// and every root the engine's fan-out produces carries the fleet
// identity — remotely parented, node-tagged, with a minted span id —
// while interior operator/source spans stay local (no wire bytes).
func TestFleetIdentityReachesEngineRoots(t *testing.T) {
	homes, schools := workload.HomesSchools(5, 5, 2, 3)
	rec := trace.New()
	rec.Node = "owner-node"
	e := New(DefaultOptions())
	e.SetTracer(rec)
	e.Register("homesSrc", nav.NewTreeDoc(homes))
	e.Register("schoolsSrc", nav.NewTreeDoc(schools))
	q, err := e.Compile(workload.HomesSchoolsPlan())
	if err != nil {
		t.Fatal(err)
	}
	doc := trace.NewDoc(q.Document(), trace.ClientLabel, rec)

	remote := trace.Context{TraceID: trace.NewTraceID(), SpanID: 4242}
	rec.SetRemoteParent(remote)
	root, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Down(root); err != nil {
		t.Fatal(err)
	}
	rec.ClearRemoteParent()

	roots := rec.Take()
	if len(roots) == 0 {
		t.Fatal("no roots recorded")
	}
	var check func(sp *trace.Span, isRoot bool)
	check = func(sp *trace.Span, isRoot bool) {
		if isRoot {
			if sp.Parent != remote.SpanID {
				t.Fatalf("root %s Parent = %d, want %d", sp.Label, sp.Parent, remote.SpanID)
			}
			if sp.ID == 0 {
				t.Fatalf("root %s has no fleet span id", sp.Label)
			}
			if sp.Node != "owner-node" {
				t.Fatalf("root %s Node = %q, want owner-node", sp.Label, sp.Node)
			}
		} else if sp.ID != 0 || sp.Parent != 0 || sp.Node != "" {
			t.Fatalf("interior span %s carries fleet identity: %+v", sp.Label, sp)
		}
		for _, c := range sp.Children {
			check(c, false)
		}
	}
	for _, r := range roots {
		check(r, true)
	}
}
