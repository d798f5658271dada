package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/trace"
)

// The operator pipeline.
//
// Every algebra operator compiles to one builder, and every builder
// builds cursors: an operator answers a pull on its output with the
// one next binding, pulling its inputs only as far as that binding
// needs. This is the lazy mediator of the paper (Section 3, Appendix
// A): demand on an output list becomes the least demand on the input
// lists, and at the leaves DOM-VXD navigations on the sources. The
// answer document (bindingList, the tupleDestroy resolver, group value
// lists) pulls one binding per client step; the blocking operators
// (orderBy, the difference right input) drain their inputs with the
// same pulls.
//
// Cursors are linear (consume-once). Replayability is introduced only
// where a consumer needs it, and each such point is one of the paper's
// operator caches (Section 3, Appendix A):
//
//   - the top log every Document replays (always on — the client may
//     navigate from any node it has seen);
//   - JoinCache: the nested-loops inner input is one replayLog shared by
//     all outer bindings (the hash index plays the same role). Off,
//     the join re-invokes the inner builder per outer binding;
//   - GroupCache: the groupBy input is one replayLog, group value lists
//     are memoized positions into it. Off, a value list continues the
//     input scan from a fork() of the cursor at the previous member,
//     re-deriving the bindings on every visit;
//   - PathCache: where an ablation above re-invokes or forks its
//     builder, getDescendants hands out replay cursors over one shared
//     log instead of re-running the descent. With both other caches on
//     nothing re-invokes or forks, so default plans carry no such log.

// cursor is the operator output: next returns the next binding, or
// (nil, nil) at end of input, or (nil, err) on failure. A consumer
// stops pulling at the first end or error; the replay logs memoize
// both at their position, so every later reader sees the same prefix
// and the same outcome.
//
// fork returns an independent cursor that continues from the current
// position: private state (the binding being expanded, seen sets) is
// copied and the input forked, while logs and hash indexes — the
// caches — are shared. Only the GroupCache-off value lists fork.
type cursor interface {
	next() (*binding, error)
	fork() cursor
}

// builder creates an operator's output cursor; each invocation derives
// the output afresh. With JoinCache and GroupCache on, every operator
// has exactly one consumer (multi-reader points go through a replayLog
// or the hash index) and its builder is invoked once per query.
type builder func() (cursor, error)

// drain pulls the cursor to exhaustion.
func drain(c cursor) ([]*binding, error) {
	var out []*binding
	for {
		b, err := c.next()
		if b == nil {
			return out, err
		}
		out = append(out, b)
	}
}

// loggedBindings counts, process-wide, the bindings appended at replay
// points: the logs and the hash-join indexes.
var loggedBindings atomic.Int64

// LoggedBindings returns the number of bindings the operator pipeline
// has appended at replay points (logs and hash-join indexes) in this
// process.
func LoggedBindings() int64 { return loggedBindings.Load() }

// replayLog replays a linear cursor: bindings are appended to an
// append-only buffer as consumers demand positions, so any number of
// readers (the answer document, group member scans, join re-probes) share
// one pass over the input. The terminal error, if any, is memoized at
// its position — a replay sees the same prefix and the same error.
type replayLog struct {
	src cursor // nil once exhausted or failed
	buf []*binding
	err error
}

// at returns the binding at position i, pulling the source as far as
// needed; nil at end of input (or the memoized error).
func (l *replayLog) at(i int) (*binding, error) {
	for l.src != nil && i >= len(l.buf) {
		b, err := l.src.next()
		if b == nil {
			l.err, l.src = err, nil
			break
		}
		l.buf = append(l.buf, b)
		loggedBindings.Add(1)
	}
	if i < len(l.buf) {
		return l.buf[i], nil
	}
	return nil, l.err
}

// lazyLog defers input derivation until a reader first demands a
// position.
type lazyLog struct {
	in  builder
	log *replayLog
	err error
}

func (l *lazyLog) get() (*replayLog, error) {
	if l.log == nil && l.err == nil {
		c, err := l.in()
		if err != nil {
			l.err = err
		} else {
			l.log = &replayLog{src: c}
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

func (c *logCursor) next() (*binding, error) {
	log, err := c.log.get()
	if err != nil {
		return nil, err
	}
	b, err := log.at(c.pos)
	if b != nil {
		c.pos++
	}
	return b, err
}

func (c *logCursor) fork() cursor { f := *c; return &f }

// tracedCursor wraps an operator's cursor so every pull opens a
// "next" span in the recorder of the navigation being served.
type tracedCursor struct {
	in    cursor
	label string
	q     *Query
}

func (t *tracedCursor) next() (*binding, error) {
	rec := t.q.rec
	sp := rec.Begin(t.label, "next")
	b, err := t.in.next()
	rec.End(sp)
	return b, err
}

func (t *tracedCursor) fork() cursor {
	return &tracedCursor{in: t.in.fork(), label: t.label, q: t.q}
}

// sliceCursor serves a fixed slice (sources, sorted orderBy output).
type sliceCursor struct {
	buf []*binding
	pos int
}

func (s *sliceCursor) next() (*binding, error) {
	if s.pos >= len(s.buf) {
		return nil, nil
	}
	s.pos++
	return s.buf[s.pos-1], nil
}

func (s *sliceCursor) fork() cursor { f := *s; return &f }

// mapCursor applies a per-binding kernel.
type mapCursor struct {
	in cursor
	fn func(*binding) (*binding, error)
}

func (m *mapCursor) next() (*binding, error) {
	b, err := m.in.next()
	if b == nil {
		return nil, err
	}
	return m.fn(b)
}

func (m *mapCursor) fork() cursor {
	return &mapCursor{in: m.in.fork(), fn: m.fn}
}

// filterCursor keeps the bindings satisfying pred.
type filterCursor struct {
	in   cursor
	pred func(*binding) (bool, error)
}

func (f *filterCursor) next() (*binding, error) {
	for {
		b, err := f.in.next()
		if b == nil {
			return nil, err
		}
		ok, err := f.pred(b)
		if err != nil {
			return nil, err
		}
		if ok {
			return b, nil
		}
	}
}

func (f *filterCursor) fork() cursor {
	return &filterCursor{in: f.in.fork(), pred: f.pred}
}

// expandCursor is the flatMap of the fused σ-scan: each input binding
// expands into a lazy node list, bound to out. The list is stepped one
// node per pull, so the scan never explores beyond the match it
// returns.
type expandCursor struct {
	in   cursor
	mk   func(*binding) (list, error)
	out  *linkOp  // binds each match
	base *binding // binding currently being expanded
	cur  list     // its remaining match list
}

func (e *expandCursor) next() (*binding, error) {
	for {
		if e.cur != nil {
			h, rest, err := e.cur.next()
			if err != nil {
				return nil, err
			}
			if h != nil {
				e.cur = rest
				return e.base.with(e.out, h), nil
			}
			e.base, e.cur = nil, nil
		}
		b, err := e.in.next()
		if b == nil {
			return nil, err
		}
		l, err := e.mk(b)
		if err != nil {
			return nil, err
		}
		e.base, e.cur = b, l
	}
}

func (e *expandCursor) fork() cursor {
	f := *e
	f.in = e.in.fork()
	return &f
}

// descendCursor is getDescendants: each input binding expands into the
// descendants of its parent value, in document order, that the lazy
// DFA accepts, bound to out. The cursor owns its walk: a stack of
// levels, one per depth, reused across input bindings. Subtrees whose
// state cannot reach acceptance are pruned without exploration, and so
// are the children of a match no label can extend (homes.home never
// reads a home's children). The walk allocates only what it hands out:
// a match's source position and its binding link.
type descendCursor struct {
	in     cursor
	parent string
	out    *linkOp
	dfa    *pathexpr.DFA
	base   *binding    // binding currently being expanded
	stack  []walkLevel // its descent; empty between bindings
}

// walkLevel is one depth of a descent: the siblings still to visit and
// the DFA state before their labels. A level with a document is a
// source level, stepping d/r/f on it directly: id is the parent until
// started, then the last sibling visited. Any other level steps sibs,
// the persistent list of the siblings left (constructed values).
type walkLevel struct {
	state   int
	started bool
	doc     nav.Document
	id      nav.ID
	sibs    list
}

// step advances lv to its next sibling and returns its label, with ok
// false once the siblings run out. A generic level also returns the
// sibling's node; a source level leaves the sibling at lv.id and boxes
// nothing.
func (lv *walkLevel) step() (c Node, label string, ok bool, err error) {
	if lv.doc == nil {
		if c, lv.sibs, err = lv.sibs.next(); c == nil || err != nil {
			return nil, "", false, err
		}
		label, err = c.Label()
		return c, label, err == nil, err
	}
	var id nav.ID
	if lv.started {
		id, err = lv.doc.Right(lv.id)
	} else {
		id, err = lv.doc.Down(lv.id)
	}
	if id == nil || err != nil {
		return nil, "", false, err
	}
	lv.id, lv.started = id, true
	label, err = lv.doc.Fetch(id)
	return nil, label, err == nil, err
}

// push opens the level of n's children under DFA state. A lazy node is
// forced here, so a SourceRoot's first source step follows its Root.
func (d *descendCursor) push(n Node, state int) error {
	if ln, ok := n.(*lazyNode); ok {
		var err error
		if n, err = ln.force(); err != nil {
			return err
		}
	}
	if s, ok := n.(*srcPos); ok {
		d.stack = append(d.stack, walkLevel{state: state, doc: s.doc, id: s.id})
	} else {
		d.stack = append(d.stack, walkLevel{state: state, sibs: n.Children()})
	}
	return nil
}

func (d *descendCursor) next() (*binding, error) {
	for {
		top := len(d.stack) - 1
		if top < 0 {
			b, err := d.in.next()
			if b == nil {
				d.base = nil
				return nil, err
			}
			pv, err := b.node(d.parent)
			if err != nil {
				return nil, err
			}
			if err := d.push(pv, d.dfa.Start().ID); err != nil {
				return nil, err
			}
			d.base = b
			continue
		}
		lv := &d.stack[top]
		c, label, ok, err := lv.step()
		if err != nil {
			return nil, err
		}
		if !ok {
			d.stack[top] = walkLevel{}
			d.stack = d.stack[:top]
			continue
		}
		st := d.dfa.Step(lv.state, label)
		if !st.Alive {
			continue
		}
		doc, id := lv.doc, lv.id
		if st.Descends {
			if doc != nil {
				d.stack = append(d.stack, walkLevel{state: st.ID, doc: doc, id: id})
			} else if err := d.push(c, st.ID); err != nil {
				return nil, err
			}
			if !st.Accepting {
				continue
			}
		}
		// The child matches: it accepts, or it cannot descend, and an
		// alive state that cannot descend accepts. The walk resumes
		// below it if it descends, else at its siblings.
		if doc != nil {
			c = &srcPos{doc: doc, id: id}
		}
		return d.base.with(d.out, c), nil
	}
}

// fork copies the stack: levels are values, and generic sibling lists
// are persistent, so the copy and the original step independently.
func (d *descendCursor) fork() cursor {
	f := *d
	f.in, f.stack = d.in.fork(), slices.Clone(d.stack)
	return &f
}

// chainCursor concatenates operator outputs (union); each successor is
// built only after its predecessor is exhausted.
type chainCursor struct {
	cur  cursor
	rest []builder
}

func (c *chainCursor) next() (*binding, error) {
	for {
		if c.cur == nil {
			if len(c.rest) == 0 {
				return nil, nil
			}
			bc, err := c.rest[0]()
			if err != nil {
				return nil, err
			}
			c.cur, c.rest = bc, c.rest[1:]
		}
		b, err := c.cur.next()
		if b != nil || err != nil {
			return b, err
		}
		c.cur = nil
	}
}

func (c *chainCursor) fork() cursor {
	f := *c
	if c.cur != nil {
		f.cur = c.cur.fork()
	}
	return &f
}

// distinctCursor keeps first occurrences, keying with the joined
// variable list precomputed.
type distinctCursor struct {
	in   cursor
	ks   *keyspace
	vars []string
	ck   string
	seen map[string]bool
}

func (d *distinctCursor) next() (*binding, error) {
	for {
		b, err := d.in.next()
		if b == nil {
			return nil, err
		}
		k, err := b.key(d.ck, d.ks, d.vars)
		if err != nil {
			return nil, err
		}
		if !d.seen[k] {
			d.seen[k] = true
			return b, nil
		}
	}
}

func (d *distinctCursor) fork() cursor {
	f := *d
	f.in, f.seen = d.in.fork(), maps.Clone(d.seen)
	return &f
}

// diffCursor emits the left bindings whose key tuple the right input
// never produced. The right side is drained in full — but only once the
// first left binding exists, and never if the left input is empty.
type diffCursor struct {
	in    cursor
	right builder
	ks    *keyspace
	vars  []string
	ck    string
	seen  map[string]bool
}

func (d *diffCursor) next() (*binding, error) {
	for {
		b, err := d.in.next()
		if b == nil {
			return nil, err
		}
		if d.seen == nil {
			rc, err := d.right()
			if err != nil {
				return nil, err
			}
			all, err := drain(rc)
			if err != nil {
				return nil, err
			}
			if d.seen, err = keySeen(all, d.ks, d.vars); err != nil {
				return nil, err
			}
		}
		k, err := b.key(d.ck, d.ks, d.vars)
		if err != nil {
			return nil, err
		}
		if !d.seen[k] {
			return b, nil
		}
	}
}

// fork shares the right-side key set rather than copying it: once built
// it is never written again, and the first pull — which precedes any
// fork — builds it.
func (d *diffCursor) fork() cursor {
	f := *d
	f.in = d.in.fork()
	return &f
}

// sortCursor drains and sorts its input on first demand (orderBy is
// blocking by definition), then serves the sorted slice.
type sortCursor struct {
	in   cursor
	keys []string
	out  *sliceCursor
}

func (s *sortCursor) next() (*binding, error) {
	if s.out == nil {
		all, err := drain(s.in)
		if err == nil {
			all, err = sortBindings(all, s.keys)
		}
		if err != nil {
			return nil, err
		}
		s.out, s.in = &sliceCursor{buf: all}, nil
	}
	return s.out.next()
}

func (s *sortCursor) fork() cursor {
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
// with a traced cursor when the query traces (the per-operator
// boundary of the observability layer).
func (c *compiler) compile(p algebra.Op) (builder, error) {
	bb, err := c.compileNode(p)
	if err != nil || c.q.rec == nil {
		return bb, err
	}
	label, q := opLabel(p), c.q
	return func() (cursor, error) {
		cur, err := bb()
		if err != nil {
			return nil, err
		}
		return &tracedCursor{in: cur, label: label, q: q}, nil
	}, nil
}

// errNestedTupleDestroy rejects a tupleDestroy below the plan root;
// Prepare reports it, so no View carries one.
var errNestedTupleDestroy = errors.New("core: tupleDestroy must be the plan root")

// compileNode dispatches compilation per operator.
func (c *compiler) compileNode(p algebra.Op) (builder, error) {
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
	default:
		return nil, fmt.Errorf("core: unsupported operator %T", p)
	}
}

func (c *compiler) compilePerBinding(input algebra.Op, fn func(*binding) (*binding, error)) (builder, error) {
	in, err := c.compile(input)
	if err != nil {
		return nil, err
	}
	return func() (cursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &mapCursor{in: cur, fn: fn}, nil
	}, nil
}

func (c *compiler) compileSource(op *algebra.Source) (builder, error) {
	doc := c.q.srcs[slices.Index(c.q.view.sources, op.URL)]
	if c.q.rec != nil {
		td := trace.NewDoc(doc, trace.SourcePrefix+op.URL, c.q.rec)
		c.q.traced = append(c.q.traced, td)
		doc = td
	}
	bind := &linkOp{to: op.Var}
	return func() (cursor, error) {
		b := newBinding().with(bind, SourceRoot(doc))
		return &sliceCursor{buf: []*binding{b}}, nil
	}, nil
}

func (c *compiler) compileGetDescendants(op *algebra.GetDescendants) (builder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	dfa := c.e.pathDFA(op.Path)
	parent, out := op.Parent, &linkOp{to: op.Out}
	raw := func() (cursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &descendCursor{in: cur, parent: parent, out: out, dfa: dfa}, nil
	}
	if o := c.e.opts; o.PathCache && !(o.JoinCache && o.GroupCache) {
		// The operator-level cache of Section 3: the explored part of the
		// descent is kept by the operator itself, so re-iterations (the
		// inner of an uncached join, an uncached group scan) replay it
		// instead of re-navigating. With both of those caches on nothing
		// re-invokes this builder or forks its cursor, and the log would
		// be dead weight.
		memo := &lazyLog{in: raw}
		return func() (cursor, error) { return &logCursor{log: memo}, nil }, nil
	}
	return raw, nil
}

func (c *compiler) compileSelect(op *algebra.Select) (builder, error) {
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
	return func() (cursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &filterCursor{in: cur, pred: func(b *binding) (bool, error) {
			return cond.Eval(b)
		}}, nil
	}, nil
}

func (c *compiler) compileFusedLabelScan(gd *algebra.GetDescendants, label string) (builder, error) {
	in, err := c.compile(gd.Input)
	if err != nil {
		return nil, err
	}
	parent, out := gd.Parent, &linkOp{to: gd.Out}
	return func() (cursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &expandCursor{in: cur, out: out, mk: func(b *binding) (list, error) {
			pv, err := b.node(parent)
			if err != nil {
				return nil, err
			}
			return fusedScanList(pv, label), nil
		}}, nil
	}, nil
}

func (c *compiler) compileOrderBy(op *algebra.OrderBy) (builder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	keys := op.Keys
	return func() (cursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &sortCursor{in: cur, keys: keys}, nil
	}, nil
}

func (c *compiler) compileUnion(l, r algebra.Op) (builder, error) {
	lb, err := c.compile(l)
	if err != nil {
		return nil, err
	}
	rb, err := c.compile(r)
	if err != nil {
		return nil, err
	}
	return func() (cursor, error) {
		lc, err := lb()
		if err != nil {
			return nil, err
		}
		return &chainCursor{cur: lc, rest: []builder{rb}}, nil
	}, nil
}

func (c *compiler) compileDifference(op *algebra.Difference) (builder, error) {
	lb, err := c.compile(op.Left)
	if err != nil {
		return nil, err
	}
	rb, err := c.compile(op.Right)
	if err != nil {
		return nil, err
	}
	vars := op.Left.OutVars()
	ks := c.ks
	return func() (cursor, error) {
		lc, err := lb()
		if err != nil {
			return nil, err
		}
		return &diffCursor{in: lc, right: rb, ks: ks, vars: vars,
			ck: strings.Join(vars, "\x01")}, nil
	}, nil
}

func (c *compiler) compileDistinct(op *algebra.Distinct) (builder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	vars := op.Input.OutVars()
	ks := c.ks
	return func() (cursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &distinctCursor{in: cur, ks: ks, vars: vars,
			ck: strings.Join(vars, "\x01"), seen: map[string]bool{}}, nil
	}, nil
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
