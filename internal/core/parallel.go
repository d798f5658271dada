package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"mix/internal/algebra"
)

// Concurrent input derivation.
//
// A join whose two inputs read *disjoint* source sets spends its
// round-trip latency serially under lazy evaluation: the outer input is
// pulled, then the inner, each waiting on its own sources. When
// Options.Parallel is set, compileJoin wraps such inputs so that the
// first pull of either drains both concurrently — two goroutines behind
// a bounded worker pool, first error cancelling the sibling — and the
// join then runs over the drained, replayable slices. The trade is
// explicit: input laziness (deriving only what probing demands) is
// given up for wall-clock overlap of the two sources, which wins
// exactly when source latency, not exploration volume, dominates.
//
// Safety: bindings and lazy nodes are not synchronized, so the two
// goroutines must never share plan state. Disjoint source sets plus
// per-side compiled subplans guarantee that — each side's cursors,
// bindings, and documents are touched only by its own goroutine until
// the WaitGroup barrier publishes the drained slices to the consumer.

// parallelWorkers bounds the goroutines draining join inputs across the
// whole process. When no slot is free the drain runs inline on the
// submitting goroutine — never queued — so nested parallel joins cannot
// deadlock the pool. Tests may swap the pool out; the package init
// sizes it to the machine.
var parallelWorkers chan struct{} = make(chan struct{}, maxInt(2, runtime.GOMAXPROCS(0)))

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Package-wide counters for the parallel paths, exposed on the daemon's
// /metrics as mix_parallel_*.
var (
	parJoins    atomic.Int64 // parallel drains started (one per join input pair)
	parInline   atomic.Int64 // side drains run inline because the pool was saturated
	parErrors   atomic.Int64 // side drains that failed with their own error
	parCanceled atomic.Int64 // side drains cut short by the sibling's error
)

// ParallelStats is a snapshot of the parallel-derivation counters.
type ParallelStats struct {
	Joins    int64 // join input pairs drained concurrently
	Inline   int64 // drains run inline (worker pool saturated)
	Errors   int64 // drains failed with their own error
	Canceled int64 // drains cancelled by the sibling side's error
}

// ParallelSnapshot returns the current parallel-derivation counters.
func ParallelSnapshot() ParallelStats {
	return ParallelStats{
		Joins:    parJoins.Load(),
		Inline:   parInline.Load(),
		Errors:   parErrors.Load(),
		Canceled: parCanceled.Load(),
	}
}

// submit runs fn on a pool worker, or inline when the pool is
// saturated. It never blocks waiting for a slot. The pool channel is
// captured once so the slot is released to the pool it was taken from,
// even if parallelWorkers is swapped while fn runs.
func submit(fn func()) {
	pool := parallelWorkers
	select {
	case pool <- struct{}{}:
		go func() {
			defer func() { <-pool }()
			fn()
		}()
	default:
		parInline.Add(1)
		fn()
	}
}

// trySubmit runs fn on a pool worker if a slot is free, reporting
// whether it was handed off. Unlike submit it never runs fn inline —
// batch-drain pumps loop instead, keeping the handoff chain stack-flat
// however many batches a drain takes.
func trySubmit(fn func()) bool {
	pool := parallelWorkers
	select {
	case pool <- struct{}{}:
		go func() {
			defer func() { <-pool }()
			fn()
		}()
		return true
	default:
		return false
	}
}

// parallelBPair wraps the compiled inputs of op so that forcing either
// side drains both concurrently (once — the results replay, like the
// join's inner cache), one batch per scheduling quantum, with the
// work-stealing handoff of parallelBDrain. ok is false when the inputs
// do not read disjoint non-empty source sets, in which case derivation
// order stays serial: overlapping sources would hand the same
// unsynchronized document and lazy plan state to both goroutines.
func (e *Engine) parallelBPair(op *algebra.Join, left, right bbuilder, batch int) (bbuilder, bbuilder, bool) {
	ls, rs := algebra.Sources(op.Left), algebra.Sources(op.Right)
	if len(ls) == 0 || len(rs) == 0 {
		return nil, nil, false
	}
	seen := varSet(ls)
	for _, s := range rs {
		if seen[s] {
			return nil, nil, false
		}
	}
	pd := &parallelBDrain{eng: e, left: left, right: right, batch: batch}
	lb := func() (bcursor, error) {
		pd.once.Do(pd.run)
		if pd.lerr != nil {
			return nil, pd.lerr
		}
		return &sliceBCursor{buf: pd.lres}, nil
	}
	rb := func() (bcursor, error) {
		pd.once.Do(pd.run)
		if pd.rerr != nil {
			return nil, pd.rerr
		}
		return &sliceBCursor{buf: pd.rres}, nil
	}
	return lb, rb, true
}

// parallelBDrain drains the two join inputs in batch-sized quanta with
// work stealing: after every batch a side offers its continuation back
// to the worker pool, so a freed slot (the sibling finishing, another
// query's drain ending) picks the work up; when the pool is saturated
// the pump loops inline — never recursing — so the handoff chain stays
// stack-flat no matter how many batches a drain takes.
type parallelBDrain struct {
	eng         *Engine
	left, right bbuilder
	batch       int

	once       sync.Once
	lres, rres []*binding
	lerr, rerr error
}

func (pd *parallelBDrain) run() {
	parJoins.Add(1)
	sp := pd.eng.tracer.Begin("parallel", "derive-inputs")
	ctx, cancel := context.WithCancelCause(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	side := func(bb bbuilder, res *[]*binding, errp *error) {
		finish := func(err error) {
			if err != nil {
				*res, *errp = nil, err
				if context.Cause(ctx) == err {
					parCanceled.Add(1)
				} else {
					parErrors.Add(1)
				}
				cancel(err) // no-op if the sibling already cancelled
			}
			wg.Done()
		}
		cur, err := bb()
		if err != nil {
			finish(err)
			return
		}
		var pump func()
		pump = func() {
			for {
				if ctx.Err() != nil {
					finish(context.Cause(ctx))
					return
				}
				bs, err := cur.bnext(pd.batch)
				if err != nil {
					finish(err)
					return
				}
				if len(bs) == 0 {
					finish(nil)
					return
				}
				*res = append(*res, bs...)
				recordBatch(len(bs))
				if trySubmit(pump) {
					return
				}
			}
		}
		pump()
	}
	submit(func() { side(pd.left, &pd.lres, &pd.lerr) })
	submit(func() { side(pd.right, &pd.rres, &pd.rerr) })
	wg.Wait()
	cancel(nil)
	pd.eng.tracer.End(sp)
	pd.left, pd.right, pd.eng = nil, nil, nil
}
