package core

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/trace"
)

// The operator pipeline.
//
// Every algebra operator compiles to one bbuilder, and every bbuilder
// builds bcursors: operators exchange slices of up to Options.BatchSize
// bindings per call, so selection, projection, distinct, groupBy
// ingest, hash-join build/probe and fingerprint keying loop over a
// whole batch inside one call instead of paying a virtual call per
// binding per operator.
//
// The paper's lazy contract — explore only what the client demands —
// lives at the answer-document boundary, not inside the pipeline, so
// vectorization must not change a single source navigation there. The
// reconciliation is the want parameter: a cursor never computes more
// than want bindings per call, operators propagate the want they
// receive downstream, and the answer document (bindingList, the
// tupleDestroy resolver, group value lists) pulls with want=1. Under
// client demand the pipeline therefore executes the binding-at-a-time
// schedule of the paper's mediators — same pulls, same condition
// evaluations, same source commands — whatever the width. Full batches
// flow only where the whole output is needed anyway: Materialize
// predrains the top log batch-wise, and the blocking operators
// (orderBy, the difference right input) drain
// their inputs in batch-sized pulls. Those drains reorder work but
// never change the set of computations, so answers and navigation
// totals are independent of the width.
//
// Cursors are linear (consume-once). Replayability is introduced only
// where a consumer needs it, and each such point is one of the paper's
// operator caches (Section 3, Appendix A):
//
//   - the top log every Document replays (always on — the client may
//     navigate from any node it has seen);
//   - JoinCache: the nested-loops inner input is one batchLog shared by
//     all outer bindings (the hash index plays the same role). Off,
//     the join re-invokes the inner bbuilder per outer binding;
//   - GroupCache: the groupBy input is one batchLog, group value lists
//     are memoized positions into it. Off, a value list continues the
//     input scan from a fork() of the cursor at the previous member,
//     re-deriving the bindings on every visit;
//   - PathCache: where an ablation above re-invokes or forks its
//     builder, getDescendants hands out replay cursors over one shared
//     log instead of re-running the descent. With both other caches on
//     nothing re-invokes or forks, so default plans carry no such log.

// bcursor is the operator output: bnext returns between 1 and
// max(want,1) bindings, or (nil, nil) at end of input, or (nil, err) on
// failure. The returned slice is scratch owned by the cursor — valid
// only until the next bnext call (the bindings it points to are
// immutable and safe to retain). A cursor that computed a prefix of a
// batch before failing returns the prefix first and the error on the
// following call; errors and exhaustion are sticky.
//
// fork returns an independent cursor that continues from the current
// position: private state (scratch, buffered input, seen sets) is
// copied and the input forked, while logs and hash indexes — the
// caches — are shared. Only the GroupCache-off value lists fork.
type bcursor interface {
	bnext(want int) ([]*binding, error)
	fork() bcursor
}

// bbuilder creates an operator's output cursor; each invocation derives
// the output afresh. With JoinCache and GroupCache on, every operator
// has exactly one consumer (multi-reader points go through a batchLog
// or the hash index) and its builder is invoked once per query.
type bbuilder func() (bcursor, error)

func clampWant(want int) int {
	if want < 1 {
		return 1
	}
	return want
}

// drainB pulls the cursor to exhaustion in want-sized batches.
func drainB(c bcursor, want int) ([]*binding, error) {
	var out []*binding
	for {
		bs, err := c.bnext(want)
		if err != nil {
			return nil, err
		}
		if len(bs) == 0 {
			return out, nil
		}
		out = append(out, bs...)
	}
}

// Package-wide batch-pipeline counters, exposed on the daemon's
// /metrics as mix_batch_*.
var (
	batchBatches  atomic.Int64 // batches logged at materialization points
	batchBindings atomic.Int64 // bindings those batches carried
	batchPredrain atomic.Int64 // Materialize predrains of a top-level log
)

func recordBatch(n int) {
	batchBatches.Add(1)
	batchBindings.Add(int64(n))
}

// BatchStats is a snapshot of the batch-pipeline counters.
type BatchStats struct {
	Batches   int64 // batches logged at materialization points
	Bindings  int64 // bindings carried by those batches
	Predrains int64 // whole-query batch predrains (Materialize)
}

// BatchSnapshot returns the current batch-pipeline counters.
func BatchSnapshot() BatchStats {
	return BatchStats{
		Batches:   batchBatches.Load(),
		Bindings:  batchBindings.Load(),
		Predrains: batchPredrain.Load(),
	}
}

// batchLog replays a linear cursor: batches are appended to an
// append-only buffer as consumers demand positions, so any number of
// readers (the answer document, group member scans, join re-probes) share
// one pass over the input. The terminal error, if any, is memoized at
// its position — a replay sees the same prefix and the same error.
type batchLog struct {
	src  bcursor // nil once exhausted or failed
	buf  []*binding
	err  error
	done bool
}

// at returns the binding at position i, growing the log with want-sized
// pulls as needed; nil at end of input (or the memoized error).
func (l *batchLog) at(i, want int) (*binding, error) {
	for !l.done && i >= len(l.buf) {
		bs, err := l.src.bnext(want)
		if err != nil {
			l.err, l.done, l.src = err, true, nil
			break
		}
		if len(bs) == 0 {
			l.done, l.src = true, nil
			break
		}
		l.buf = append(l.buf, bs...)
		recordBatch(len(bs))
	}
	if i < len(l.buf) {
		return l.buf[i], nil
	}
	return nil, l.err
}

// lazyLog defers input derivation until a reader first demands a
// position.
type lazyLog struct {
	in  bbuilder
	log *batchLog
	err error
}

func (l *lazyLog) get() (*batchLog, error) {
	if l.log == nil && l.err == nil {
		c, err := l.in()
		if err != nil {
			l.err = err
		} else {
			l.log = &batchLog{src: c}
		}
		l.in = nil
	}
	return l.log, l.err
}

// fork snapshots the log for a reader whose input must not be shared
// (the uncached nested-loops inner): the derived prefix is copied, the
// remainder re-derived from a fork of the source cursor.
func (l *lazyLog) fork() *lazyLog {
	if l.log == nil {
		return &lazyLog{in: l.in, err: l.err}
	}
	f := *l.log
	f.buf = append([]*binding(nil), f.buf...)
	if f.src != nil {
		f.src = f.src.fork()
	}
	return &lazyLog{log: &f}
}

// logCursor replays a shared lazyLog from its own position: what
// getDescendants hands out under PathCache where builders are
// re-invoked or cursors forked.
type logCursor struct {
	log *lazyLog
	pos int
}

func (c *logCursor) bnext(want int) ([]*binding, error) {
	log, err := c.log.get()
	if err != nil {
		return nil, err
	}
	if b, err := log.at(c.pos, want); b == nil {
		return nil, err
	}
	end := min(c.pos+clampWant(want), len(log.buf))
	out := log.buf[c.pos:end]
	c.pos = end
	return out, nil
}

func (c *logCursor) fork() bcursor { f := *c; return &f }

// predrain forces the whole top-level binding list in batch-sized
// pulls. Pull errors are left memoized in the log — the subsequent
// document walk surfaces them at their position.
func (q *Query) predrain() {
	log, err := q.top.get()
	if err != nil || log.done {
		return
	}
	batchPredrain.Add(1)
	for width := q.eng.opts.width(); !log.done; {
		if _, err := log.at(len(log.buf), width); err != nil {
			return
		}
	}
}

// tracedBCursor wraps an operator's cursor so every batch pull opens a
// span; the op records how many bindings the batch carried ("next[17]").
type tracedBCursor struct {
	in    bcursor
	label string
	rec   *trace.Recorder
}

func (t *tracedBCursor) bnext(want int) ([]*binding, error) {
	sp := t.rec.Begin(t.label, "next")
	bs, err := t.in.bnext(want)
	if sp != nil {
		sp.Op = "next[" + strconv.Itoa(len(bs)) + "]"
	}
	t.rec.End(sp)
	return bs, err
}

func (t *tracedBCursor) fork() bcursor {
	return &tracedBCursor{in: t.in.fork(), label: t.label, rec: t.rec}
}

// sliceBCursor serves a fixed slice in want-sized windows (sources,
// sorted orderBy output).
type sliceBCursor struct {
	buf []*binding
	pos int
}

func (s *sliceBCursor) bnext(want int) ([]*binding, error) {
	if s.pos >= len(s.buf) {
		return nil, nil
	}
	end := s.pos + clampWant(want)
	if end > len(s.buf) {
		end = len(s.buf)
	}
	out := s.buf[s.pos:end]
	s.pos = end
	return out, nil
}

func (s *sliceBCursor) fork() bcursor { f := *s; return &f }

// mapBCursor applies a per-binding kernel to whole batches.
type mapBCursor struct {
	in  bcursor
	fn  func(*binding) (*binding, error)
	out []*binding
	err error
}

func (m *mapBCursor) bnext(want int) ([]*binding, error) {
	if m.err != nil {
		return nil, m.err
	}
	bs, err := m.in.bnext(want)
	if len(bs) == 0 {
		m.err = err
		return nil, err
	}
	m.out = m.out[:0]
	for _, b := range bs {
		nb, err := m.fn(b)
		if err != nil {
			m.err = err
			if len(m.out) == 0 {
				return nil, err
			}
			return m.out, nil
		}
		m.out = append(m.out, nb)
	}
	return m.out, nil
}

func (m *mapBCursor) fork() bcursor {
	return &mapBCursor{in: m.in.fork(), fn: m.fn, err: m.err}
}

// filterBCursor keeps the bindings satisfying pred. A batch that
// filters down to nothing triggers another input pull — an empty batch
// is never surfaced as end of input.
type filterBCursor struct {
	in   bcursor
	pred func(*binding) (bool, error)
	out  []*binding
	err  error
}

func (f *filterBCursor) bnext(want int) ([]*binding, error) {
	if f.err != nil {
		return nil, f.err
	}
	f.out = f.out[:0]
	for {
		bs, err := f.in.bnext(want)
		if len(bs) == 0 {
			f.err = err
			if len(f.out) > 0 {
				return f.out, nil
			}
			return nil, err
		}
		for _, b := range bs {
			ok, perr := f.pred(b)
			if perr != nil {
				f.err = perr
				if len(f.out) > 0 {
					return f.out, nil
				}
				return nil, perr
			}
			if ok {
				f.out = append(f.out, b)
			}
		}
		if len(f.out) > 0 {
			return f.out, nil
		}
	}
}

func (f *filterBCursor) fork() bcursor {
	return &filterBCursor{in: f.in.fork(), pred: f.pred, err: f.err}
}

// expandBCursor is the batch flatMap: each input binding expands into a
// lazy node list (getDescendants matches, fused σ-scan matches), bound
// to out. Lists are stepped one node at a time so a partially-filled
// batch never explores beyond what it returns.
type expandBCursor struct {
	in   bcursor
	mk   func(*binding) (list, error)
	out  string
	pend []*binding // buffered input bindings awaiting expansion
	pi   int
	base *binding // binding currently being expanded
	cur  list     // its remaining match list
	obuf []*binding
	err  error
	done bool
}

func (e *expandBCursor) bnext(want int) ([]*binding, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.obuf = e.obuf[:0]
	want = clampWant(want)
	for len(e.obuf) < want {
		if e.cur != nil {
			h, rest, err := e.cur.next()
			if err != nil {
				return e.fail(err)
			}
			if h == nil {
				e.cur, e.base = nil, nil
				continue
			}
			e.obuf = append(e.obuf, e.base.with(e.out, h))
			e.cur = rest
			continue
		}
		if e.pi >= len(e.pend) {
			if e.done {
				break
			}
			bs, err := e.in.bnext(want)
			if len(bs) == 0 {
				if err != nil {
					return e.fail(err)
				}
				e.done = true
				break
			}
			e.pend = append(e.pend[:0], bs...)
			e.pi = 0
		}
		b := e.pend[e.pi]
		e.pi++
		l, err := e.mk(b)
		if err != nil {
			return e.fail(err)
		}
		e.base, e.cur = b, l
	}
	if len(e.obuf) > 0 {
		return e.obuf, nil
	}
	return nil, nil
}

func (e *expandBCursor) fail(err error) ([]*binding, error) {
	e.err = err
	if len(e.obuf) > 0 {
		return e.obuf, nil
	}
	return nil, err
}

func (e *expandBCursor) fork() bcursor {
	f := *e
	f.in, f.obuf = e.in.fork(), nil
	f.pend, f.pi = append([]*binding(nil), e.pend[e.pi:]...), 0
	return &f
}

// chainBCursor concatenates operator outputs (union); each successor is
// built only after its predecessor is exhausted.
type chainBCursor struct {
	cur  bcursor
	rest []bbuilder
	err  error
}

func (c *chainBCursor) bnext(want int) ([]*binding, error) {
	if c.err != nil {
		return nil, c.err
	}
	for {
		if c.cur == nil {
			if len(c.rest) == 0 {
				return nil, nil
			}
			bc, err := c.rest[0]()
			if err != nil {
				c.err = err
				return nil, err
			}
			c.cur, c.rest = bc, c.rest[1:]
		}
		bs, err := c.cur.bnext(want)
		if err != nil {
			c.err = err
			return nil, err
		}
		if len(bs) > 0 {
			return bs, nil
		}
		c.cur = nil
	}
}

func (c *chainBCursor) fork() bcursor {
	f := *c
	if c.cur != nil {
		f.cur = c.cur.fork()
	}
	return &f
}

// distinctBCursor keeps first occurrences, keying whole batches at a
// time (batchKeys joins the variable list once per batch, not once per
// binding).
type distinctBCursor struct {
	in   bcursor
	ks   *keyspace
	vars []string
	ck   string
	seen map[string]bool
	out  []*binding
	kbuf []string
	err  error
}

func (d *distinctBCursor) bnext(want int) ([]*binding, error) {
	if d.err != nil {
		return nil, d.err
	}
	d.out = d.out[:0]
	for {
		bs, err := d.in.bnext(want)
		if len(bs) == 0 {
			d.err = err
			if len(d.out) > 0 {
				return d.out, nil
			}
			return nil, err
		}
		keys, n, kerr := batchKeys(bs, d.ks, d.vars, d.ck, d.kbuf)
		d.kbuf = keys
		for i := 0; i < n; i++ {
			if !d.seen[keys[i]] {
				d.seen[keys[i]] = true
				d.out = append(d.out, bs[i])
			}
		}
		if kerr != nil {
			d.err = kerr
			if len(d.out) > 0 {
				return d.out, nil
			}
			return nil, kerr
		}
		if len(d.out) > 0 {
			return d.out, nil
		}
	}
}

func (d *distinctBCursor) fork() bcursor {
	f := *d
	f.in, f.out, f.kbuf = d.in.fork(), nil, nil
	f.seen = maps.Clone(d.seen)
	return &f
}

// diffBCursor emits the left bindings whose key tuple the right input
// never produced. The right side is drained in full batches — but only
// once the first left binding exists, and never if the left input is
// empty.
type diffBCursor struct {
	in    bcursor
	right bbuilder
	ks    *keyspace
	vars  []string
	ck    string
	batch int
	seen  map[string]bool
	out   []*binding
	kbuf  []string
	err   error
}

func (d *diffBCursor) bnext(want int) ([]*binding, error) {
	if d.err != nil {
		return nil, d.err
	}
	d.out = d.out[:0]
	for {
		bs, err := d.in.bnext(want)
		if len(bs) == 0 {
			d.err = err
			if len(d.out) > 0 {
				return d.out, nil
			}
			return nil, err
		}
		if d.seen == nil {
			rc, rerr := d.right()
			if rerr == nil {
				var all []*binding
				if all, rerr = drainB(rc, d.batch); rerr == nil {
					d.seen, rerr = keySeen(all, d.ks, d.vars)
				}
			}
			if rerr != nil {
				d.err = rerr
				return nil, rerr
			}
		}
		keys, n, kerr := batchKeys(bs, d.ks, d.vars, d.ck, d.kbuf)
		d.kbuf = keys
		for i := 0; i < n; i++ {
			if !d.seen[keys[i]] {
				d.out = append(d.out, bs[i])
			}
		}
		if kerr != nil {
			d.err = kerr
			if len(d.out) > 0 {
				return d.out, nil
			}
			return nil, kerr
		}
		if len(d.out) > 0 {
			return d.out, nil
		}
	}
}

// fork copies the right-side key set: once built it is never written
// again, and the first pull — which precedes any fork — builds it.
func (d *diffBCursor) fork() bcursor {
	f := *d
	f.in, f.out, f.kbuf = d.in.fork(), nil, nil
	return &f
}

// sortBCursor drains and sorts its input on first demand (orderBy is
// blocking by definition), then serves the sorted slice in windows.
type sortBCursor struct {
	in    bcursor
	keys  []string
	batch int
	out   *sliceBCursor
	err   error
}

func (s *sortBCursor) bnext(want int) ([]*binding, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.out == nil {
		all, err := drainB(s.in, s.batch)
		var sorted []*binding
		if err == nil {
			sorted, err = sortBindings(all, s.keys)
		}
		if err != nil {
			s.err = err
			return nil, err
		}
		s.out, s.in = &sliceBCursor{buf: sorted}, nil
	}
	return s.out.bnext(want)
}

func (s *sortBCursor) fork() bcursor {
	f := *s
	if s.out != nil {
		out := *s.out
		f.out = &out
	} else {
		f.in = s.in.fork()
	}
	return &f
}

// compile builds the cursor constructor for a plan node, wrapping it
// with a traced cursor when a tracer is installed (the per-operator
// boundary of the observability layer).
func (c *compiler) compile(p algebra.Op) (bbuilder, error) {
	bb, err := c.compileNode(p)
	if err != nil || c.e.tracer == nil {
		return bb, err
	}
	label, rec := opLabel(p), c.e.tracer
	return func() (bcursor, error) {
		cur, err := bb()
		if err != nil {
			return nil, err
		}
		return &tracedBCursor{in: cur, label: label, rec: rec}, nil
	}, nil
}

// compileNode dispatches compilation per operator.
func (c *compiler) compileNode(p algebra.Op) (bbuilder, error) {
	switch op := p.(type) {
	case *algebra.Source:
		return c.compileSource(op)
	case *algebra.GetDescendants:
		return c.compileGetDescendants(op)
	case *algebra.Select:
		return c.compileSelect(op)
	case *algebra.Join:
		return c.compileJoin(op)
	case *algebra.GroupBy:
		return c.compileGroupBy(op)
	case *algebra.Concatenate:
		return c.compilePerBinding(op.Input, concatKernel(op))
	case *algebra.CreateElement:
		return c.compilePerBinding(op.Input, createElementKernel(op))
	case *algebra.OrderBy:
		return c.compileOrderBy(op)
	case *algebra.Project:
		return c.compilePerBinding(op.Input, projectKernel(op))
	case *algebra.Union:
		return c.compileUnion(op.Left, op.Right)
	case *algebra.Difference:
		return c.compileDifference(op)
	case *algebra.Distinct:
		return c.compileDistinct(op)
	case *algebra.WrapList:
		return c.compilePerBinding(op.Input, wrapListKernel(op))
	case *algebra.Const:
		return c.compilePerBinding(op.Input, constKernel(op))
	case *algebra.Rename:
		return c.compilePerBinding(op.Input, renameKernel(op))
	case *algebra.TupleDestroy:
		return nil, fmt.Errorf("core: tupleDestroy must be the plan root")
	default:
		return nil, fmt.Errorf("core: unsupported operator %T", p)
	}
}

func (c *compiler) compilePerBinding(input algebra.Op, fn func(*binding) (*binding, error)) (bbuilder, error) {
	in, err := c.compile(input)
	if err != nil {
		return nil, err
	}
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &mapBCursor{in: cur, fn: fn}, nil
	}, nil
}

func (c *compiler) compileSource(op *algebra.Source) (bbuilder, error) {
	doc, ok := c.e.lookup(op.URL)
	if !ok {
		return nil, fmt.Errorf("core: unregistered source %q", op.URL)
	}
	if c.e.tracer != nil {
		doc = trace.NewDoc(doc, trace.SourcePrefix+op.URL, c.e.tracer)
	}
	varName := op.Var
	return func() (bcursor, error) {
		b := newBinding().with(varName, SourceRoot(doc))
		return &sliceBCursor{buf: []*binding{b}}, nil
	}, nil
}

func (c *compiler) compileGetDescendants(op *algebra.GetDescendants) (bbuilder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	dfa := pathexpr.NewDFA(pathexpr.Compile(op.Path), c.e.intern)
	parent, out := op.Parent, op.Out
	raw := func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return descendCursor(cur, parent, out, dfa), nil
	}
	if o := c.e.opts; o.PathCache && !(o.JoinCache && o.GroupCache) {
		// The operator-level cache of Section 3: the explored part of the
		// descent is kept by the operator itself, so re-iterations (the
		// inner of an uncached join, an uncached group scan) replay it
		// instead of re-navigating. With both of those caches on nothing
		// re-invokes this builder or forks its cursor, and the log would
		// be dead weight.
		memo := &lazyLog{in: raw}
		return func() (bcursor, error) { return &logCursor{log: memo}, nil }, nil
	}
	return raw, nil
}

func (c *compiler) compileSelect(op *algebra.Select) (bbuilder, error) {
	if c.e.opts.NativeSelect {
		if lm, ok := op.Cond.(*algebra.LabelMatch); ok {
			if gd, ok := op.Input.(*algebra.GetDescendants); ok &&
				gd.Out == lm.Var && gd.Path.String() == "_" {
				return c.compileFusedLabelScan(gd, lm.Label)
			}
		}
	}
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	cond := op.Cond
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &filterBCursor{in: cur, pred: func(b *binding) (bool, error) {
			return cond.Eval(b)
		}}, nil
	}, nil
}

func (c *compiler) compileFusedLabelScan(gd *algebra.GetDescendants, label string) (bbuilder, error) {
	in, err := c.compile(gd.Input)
	if err != nil {
		return nil, err
	}
	parent, out := gd.Parent, gd.Out
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &expandBCursor{in: cur, out: out, mk: func(b *binding) (list, error) {
			pv, err := b.node(parent)
			if err != nil {
				return nil, err
			}
			return fusedScanList(pv, label), nil
		}}, nil
	}, nil
}

func (c *compiler) compileOrderBy(op *algebra.OrderBy) (bbuilder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	keys, batch := op.Keys, c.batch
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &sortBCursor{in: cur, keys: keys, batch: batch}, nil
	}, nil
}

func (c *compiler) compileUnion(l, r algebra.Op) (bbuilder, error) {
	lb, err := c.compile(l)
	if err != nil {
		return nil, err
	}
	rb, err := c.compile(r)
	if err != nil {
		return nil, err
	}
	return func() (bcursor, error) {
		lc, err := lb()
		if err != nil {
			return nil, err
		}
		return &chainBCursor{cur: lc, rest: []bbuilder{rb}}, nil
	}, nil
}

func (c *compiler) compileDifference(op *algebra.Difference) (bbuilder, error) {
	lb, err := c.compile(op.Left)
	if err != nil {
		return nil, err
	}
	rb, err := c.compile(op.Right)
	if err != nil {
		return nil, err
	}
	vars := op.Left.OutVars()
	ks, batch := c.ks, c.batch
	return func() (bcursor, error) {
		lc, err := lb()
		if err != nil {
			return nil, err
		}
		return &diffBCursor{in: lc, right: rb, ks: ks, vars: vars,
			ck: strings.Join(vars, "\x01"), batch: batch}, nil
	}, nil
}

func (c *compiler) compileDistinct(op *algebra.Distinct) (bbuilder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	vars := op.Input.OutVars()
	ks := c.ks
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &distinctBCursor{in: cur, ks: ks, vars: vars,
			ck: strings.Join(vars, "\x01"), seen: map[string]bool{}}, nil
	}, nil
}

// descendCursor expands each input binding into the descendants of its
// parent value that the path matches, bound to out.
func descendCursor(in bcursor, parent, out string, dfa *pathexpr.DFA) *expandBCursor {
	return &expandBCursor{in: in, out: out, mk: func(b *binding) (list, error) {
		pv, err := b.node(parent)
		if err != nil {
			return nil, err
		}
		return newDFAMatchList(dfa, pv), nil
	}}
}

// fusedScanList builds the fused σ_label child scan for one parent
// value: native select(σ) jumps when the parent is source-backed, a plain filtered
// scan otherwise.
func fusedScanList(pv Node, label string) list {
	sb, ok := asSourceBacked(pv)
	if !ok {
		return labelFilterList{l: pv.Children(), label: label}
	}
	doc, id := sb.source()
	// Probe the select capability once per scan (it is invariant over
	// the document), not once per hop.
	sel, _ := nav.SelectorOf(doc)
	return selectScanList{doc: doc, sel: sel, parent: id, label: label, started: false}
}

// sortBindings materializes the order keys of all bindings and sorts
// stably.
func sortBindings(all []*binding, keys []string) ([]*binding, error) {
	type keyed struct {
		b *binding
		k []string
	}
	rows := make([]keyed, len(all))
	for i, b := range all {
		ks := make([]string, len(keys))
		for j, kv := range keys {
			t, err := b.Value(kv)
			if err != nil {
				return nil, err
			}
			ks[j] = t.TextContent()
		}
		rows[i] = keyed{b: b, k: ks}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for x := range keys {
			if c := algebra.Compare(rows[i].k[x], rows[j].k[x]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := make([]*binding, len(rows))
	for i, r := range rows {
		out[i] = r.b
	}
	return out, nil
}

// keySeen builds the membership set of the operator keys of all
// bindings (the difference right side).
func keySeen(all []*binding, ks *keyspace, vars []string) (map[string]bool, error) {
	ck := strings.Join(vars, "\x01")
	seen := make(map[string]bool, len(all))
	for _, b := range all {
		k, err := b.key(ck, ks, vars)
		if err != nil {
			return nil, err
		}
		seen[k] = true
	}
	return seen, nil
}
