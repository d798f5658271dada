package core

import (
	"slices"
	"sync"

	"mix/internal/algebra"
	"mix/internal/nav"
)

// Operator inputs shared across the queries of a catalog.
//
// The paper's operator caches (the join inner, the explored part of a
// getDescendants) live as long as one query. Queries that differ only
// in a literal — cold-compute's med-home for one zip limit and then the
// next — would each derive the same literal-free inputs from scratch.
// A source-access chain is a maximal sub-plan built only of source,
// getDescendants, createElement and wrapList, with at least one
// getDescendants: it holds no σ and no literal, and reads exactly one
// source. With every cache on (DefaultOptions), an untraced query
// reads each of its chains from one input the engine keeps per chain
// and registry version, keyed by the chain's printed plan (variable
// names included), so every query of the engine that contains the
// chain reads one derivation of it. A hash join whose whole inner is a
// chain probes an index kept with that input, behind the same lock.
// Everything above a chain, a σ in particular, stays per query.
//
// A shared binding is immutable once the input publishes it (see
// binding), and so is every value a chain binds except a lazy node,
// which resolves once (lazyNode). The input's lock orders after a
// region-cache producer's: a region-cache entry's producer may pull a
// shared input, while a shared derivation reads only the engine's
// registered sources and so never enters an entry.
//
// Retirement: an input that fails (its derivation, or the keying of its
// index) is dropped from the engine, so the next query derives afresh
// while the readers that saw the error keep it. Register drops the
// inputs of older registry versions, and the table holds at most
// maxShared inputs; a chain compiled past the cap, or over a source
// document other than the one its published input reads, gets a
// private input, as an ablation engine's chains do.

// maxShared caps the engine's table of shared inputs: each holds the
// bindings derived so far of one chain.
const maxShared = 64

// shareKey identifies a shared input: the registry version the chain's
// source was resolved at and the chain's printed plan.
type shareKey struct {
	ver   uint64
	chain string
}

// input is a replay point: one derivation of an operator input, logged
// as readers demand it, with the hash indexes built over it, behind one
// lock. A shared input serves every query of the engine that contains
// its chain; a private one is the one-reader case: a query's
// nested-loops join inner, or an ablation's descent log.
//
// A chain input (chain set) logs for free: every binding a chain hands
// out is a bind link its top operator made for it alone, whose co field
// is unused (see binding), so the log threads its bindings through co,
// head to tail. Any other input keeps its bindings in buf.
type input struct {
	mu  sync.Mutex
	in  builder // the derivation, until first demanded
	src cursor  // nil once exhausted or failed
	err error

	chain      bool
	head, tail *binding
	buf        []*binding

	idx []*hashIndex // join indexes over the log, by key variables

	// doc is the source a chain input reads; eng and key are set on a
	// published input, which drop removes from eng.
	doc nav.Document
	eng *Engine
	key shareKey
}

// logPos is a reader's position in an input: the number of bindings
// read, and the last of them (a chain input continues from its co).
type logPos struct {
	n    int
	last *binding
}

// newInput returns a private input over the derivation in.
func newInput(in builder) *input { return &input{in: in} }

// next returns the binding after p and advances p, deriving one more
// binding when p is at the end of the log; nil at end of input, or the
// memoized error.
func (in *input) next(p *logPos) (*binding, error) {
	in.mu.Lock()
	b, err := in.nextLocked(p)
	in.mu.Unlock()
	if err != nil {
		in.drop()
	}
	return b, err
}

// nextLocked is next for a caller holding in.mu.
func (in *input) nextLocked(p *logPos) (*binding, error) {
	var b *binding
	switch {
	case !in.chain:
		if p.n < len(in.buf) {
			b = in.buf[p.n]
		}
	case p.last == nil:
		b = in.head
	default:
		b = p.last.co
	}
	if b == nil {
		var err error
		if b, err = in.derive(); b == nil {
			return nil, err
		}
	}
	p.n, p.last = p.n+1, b
	return b, nil
}

// derive appends the next binding of the derivation to the log.
func (in *input) derive() (*binding, error) {
	if in.in != nil {
		c, err := in.in()
		in.in, in.src, in.err = nil, c, err
	}
	if in.src == nil {
		return nil, in.err
	}
	b, err := in.src.next()
	if b == nil {
		in.src, in.err = nil, err
		return nil, err
	}
	switch {
	case !in.chain:
		in.buf = append(in.buf, b)
	case in.tail == nil:
		in.head, in.tail = b, b
	default:
		in.tail.co, in.tail = b, b
	}
	loggedBindings.Add(1)
	return b, nil
}

// fork snapshots a private input for a reader whose inner must not be
// shared (the uncached nested-loops inner): the derived prefix is
// copied, the remainder re-derived from a fork of the source cursor.
func (in *input) fork() *input {
	f := &input{in: in.in, err: in.err, buf: slices.Clone(in.buf)}
	if in.src != nil {
		f.src = in.src.fork()
	}
	return f
}

// index returns the hash index over the input keyed on keys, creating
// it on first demand.
func (in *input) index(keys []string) *hashIndex {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, h := range in.idx {
		if slices.Equal(h.keys, keys) {
			return h
		}
	}
	h := &hashIndex{in: in, src: &inputCursor{in: in, held: true}, keys: keys}
	in.idx = append(in.idx, h)
	return h
}

// drop removes a failed published input from its engine, so the next
// query derives the chain afresh.
func (in *input) drop() {
	e := in.eng
	if e == nil {
		return
	}
	e.shareMu.Lock()
	if i := slices.Index(e.shared, in); i >= 0 {
		e.shared = slices.Delete(e.shared, i, i+1)
	}
	e.shareMu.Unlock()
}

// inputCursor reads an input from its own position. A held cursor is
// the feed of the input's own hash index, whose caller holds the lock.
type inputCursor struct {
	in   *input
	pos  logPos
	held bool
}

func (c *inputCursor) next() (*binding, error) {
	if c.held {
		return c.in.nextLocked(&c.pos)
	}
	return c.in.next(&c.pos)
}

func (c *inputCursor) fork() cursor { f := *c; return &f }

// sharedInput returns the engine's input for the chain printed as chain
// over doc at registry version ver, creating it with the derivation
// derive builds. A new input is published unless the table is full,
// the version is no longer current, or the key is taken by an input
// over another document; then the caller reads it alone.
func (e *Engine) sharedInput(ver uint64, chain string, doc nav.Document, derive func() (builder, error)) (*input, error) {
	k := shareKey{ver: ver, chain: chain}
	e.shareMu.Lock()
	defer e.shareMu.Unlock()
	i := slices.IndexFunc(e.shared, func(in *input) bool { return in.key == k })
	if i >= 0 && e.shared[i].doc == doc {
		return e.shared[i], nil
	}
	b, err := derive()
	if err != nil {
		return nil, err
	}
	in := &input{in: b, chain: true, doc: doc}
	if i < 0 && ver == e.regVer.Load() && len(e.shared) < maxShared {
		in.eng, in.key = e, k
		e.shared = append(e.shared, in)
	}
	return in, nil
}

// retireShared drops the shared inputs of registry versions before ver.
func (e *Engine) retireShared(ver uint64) {
	e.shareMu.Lock()
	e.shared = slices.DeleteFunc(e.shared, func(in *input) bool { return in.key.ver < ver })
	e.shareMu.Unlock()
}

// shared returns the engine's shared input for p when the build shares
// and p is one of the view's chains, else nil. The chain's derivation
// is compiled without sharing and untraced, over the source document
// the query resolved: a query shares only while it is untraced, since a
// traced query's trace must bill every source navigation its answer
// causes, through source documents of its own.
func (c *compiler) shared(p algebra.Op) (*input, error) {
	if !c.share {
		return nil, nil
	}
	i := slices.IndexFunc(c.q.view.chains, func(ch chainSpec) bool { return ch.top == p })
	if i < 0 {
		return nil, nil
	}
	ch := c.q.view.chains[i]
	return c.e.sharedInput(c.q.regVer, ch.key, c.q.srcs[ch.src], func() (builder, error) {
		c.share = false
		defer func() { c.share = true }()
		return c.compile(p)
	})
}

// chainSpec is one of a view's source-access chains: its top operator,
// its printed plan and the index of its source in View.sources.
type chainSpec struct {
	top algebra.Op
	key string
	src int
}

// chainsOf finds the source-access chains of plan. Binding literals
// (View.Bind) rebuilds only the operators above a literal, so a bound
// view's chains are the template's own operators.
func chainsOf(plan algebra.Op, sources []string) []chainSpec {
	var out []chainSpec
	var visit func(p algebra.Op) algebra.Op
	visit = func(p algebra.Op) algebra.Op {
		if src, ok := chainSource(p, false); ok {
			out = append(out, chainSpec{top: p, src: slices.Index(sources, src)})
			return p
		}
		return algebra.MapInputs(p, visit)
	}
	visit(plan)
	buf := chainBufs.Get().(*[]byte)
	for i := range out {
		*buf = algebra.AppendString((*buf)[:0], out[i].top)
		out[i].key = string(*buf)
	}
	chainBufs.Put(buf)
	return out
}

// chainBufs recycles the buffers chain keys are printed into.
var chainBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// chainSource reports whether p is a source-access chain (descends
// tells whether an operator above p in the chain is a getDescendants)
// and returns its source name.
func chainSource(p algebra.Op, descends bool) (string, bool) {
	switch op := p.(type) {
	case *algebra.Source:
		return op.URL, descends
	case *algebra.GetDescendants:
		return chainSource(op.Input, true)
	case *algebra.CreateElement:
		return chainSource(op.Input, descends)
	case *algebra.WrapList:
		return chainSource(op.Input, descends)
	}
	return "", false
}
