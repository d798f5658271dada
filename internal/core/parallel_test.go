package core

import (
	"errors"
	"strings"
	"testing"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// serialOpts keeps the three paper caches at width 1; parallelOpts adds
// concurrent input derivation.
func serialOpts() Options {
	return Options{JoinCache: true, PathCache: true, GroupCache: true}
}

func parallelOpts() Options {
	o := serialOpts()
	o.Parallel = true
	return o
}

// TestParallelJoinIdenticalAnswer: concurrent input derivation must not
// change a byte of the answer (run under -race, this is also the data
// race check for the two side drains).
func TestParallelJoinIdenticalAnswer(t *testing.T) {
	homes, schools := workload.HomesSchools(40, 40, 8, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	run := func(opts Options) string {
		e, _ := engineWith(opts, srcs)
		q := mustCompile(t, e, hashZipPlan(algebra.Eq(algebra.V("V1"), algebra.V("V2"))))
		return xmltree.MarshalXML(mustMaterialize(t, q))
	}
	before := ParallelSnapshot()
	serial := run(serialOpts())
	if d := ParallelSnapshot().Joins - before.Joins; d != 0 {
		t.Fatalf("serial run drained %d join input pairs concurrently", d)
	}
	parallel := run(parallelOpts())
	if serial != parallel {
		t.Fatalf("parallel answer differs:\n%s\nvs\n%s", parallel, serial)
	}
	if d := ParallelSnapshot().Joins - before.Joins; d < 1 {
		t.Fatalf("parallel run drained %d join input pairs concurrently, want ≥1", d)
	}
}

// TestParallelSharedSourceStaysSerial: a self-join reads the same
// source on both sides; handing its unsynchronized document to two
// goroutines would race, so the pair must not be parallelized.
func TestParallelSharedSourceStaysSerial(t *testing.T) {
	homes, _ := workload.HomesSchools(10, 0, 4, 5)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes}
	left := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "homesSrc", Var: "r1"},
		Parent: "r1", Path: pathexpr.MustParse("home.zip._"), Out: "V1",
	}
	right := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "homesSrc", Var: "r2"},
		Parent: "r2", Path: pathexpr.MustParse("home.zip._"), Out: "V2",
	}
	plan := &algebra.Project{
		Input: &algebra.Join{Left: left, Right: right,
			Cond: algebra.Eq(algebra.V("V1"), algebra.V("V2"))},
		Keep: []string{"V1", "V2"},
	}
	before := ParallelSnapshot().Joins
	e, _ := engineWith(parallelOpts(), srcs)
	mustMaterialize(t, mustCompile(t, e, plan))
	if d := ParallelSnapshot().Joins - before; d != 0 {
		t.Fatalf("self-join was parallelized %d times; shared sources must stay serial", d)
	}
}

// errDoc is a document whose navigation fails after the root.
type errDoc struct{ err error }

type errID struct{}

func (d errDoc) Root() (nav.ID, error)       { return errID{}, nil }
func (d errDoc) Down(nav.ID) (nav.ID, error) { return nil, d.err }
func (d errDoc) Right(nav.ID) (nav.ID, error) {
	return nil, d.err
}
func (d errDoc) Fetch(nav.ID) (string, error) { return "", d.err }

// TestParallelErrorPropagates: a failing side surfaces its own error to
// the consumer and bumps the error counter; the sibling is cancelled or
// completes, never deadlocks.
func TestParallelErrorPropagates(t *testing.T) {
	boom := errors.New("source exploded")
	_, schools := workload.HomesSchools(0, 20, 5, 7)
	e := New(parallelOpts())
	e.Register("homesSrc", errDoc{err: boom})
	e.Register("schoolsSrc", nav.NewTreeDoc(schools))
	q := mustCompile(t, e, hashZipPlan(algebra.Eq(algebra.V("V1"), algebra.V("V2"))))
	before := ParallelSnapshot()
	_, err := q.Materialize()
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("expected the side's own error, got %v", err)
	}
	after := ParallelSnapshot()
	if after.Joins-before.Joins != 1 {
		t.Fatalf("joins delta = %d, want 1", after.Joins-before.Joins)
	}
	if after.Errors-before.Errors < 1 {
		t.Fatalf("errors delta = %d, want ≥1", after.Errors-before.Errors)
	}
}

// TestParallelPoolSaturatedRunsInline: with no worker slots at all,
// both drains run inline on the submitting goroutine — no queueing, no
// deadlock, identical answer.
func TestParallelPoolSaturatedRunsInline(t *testing.T) {
	saved := parallelWorkers
	parallelWorkers = make(chan struct{})
	defer func() { parallelWorkers = saved }()

	homes, schools := workload.HomesSchools(15, 15, 4, 13)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	before := ParallelSnapshot()
	e, _ := engineWith(parallelOpts(), srcs)
	q := mustCompile(t, e, hashZipPlan(algebra.Eq(algebra.V("V1"), algebra.V("V2"))))
	got := xmltree.MarshalXML(mustMaterialize(t, q))

	e2, _ := engineWith(serialOpts(), srcs)
	want := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, e2, hashZipPlan(
		algebra.Eq(algebra.V("V1"), algebra.V("V2"))))))
	if got != want {
		t.Fatalf("inline-drained answer differs:\n%s\nvs\n%s", got, want)
	}
	if d := ParallelSnapshot().Inline - before.Inline; d != 2 {
		t.Fatalf("inline drains = %d, want 2 (both sides, pool empty)", d)
	}
}
