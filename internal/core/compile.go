package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
	"mix/internal/trace"
	"mix/internal/xmltree"
)

// Engine compiles prepared views (see Prepare) against a registry of
// named sources. The registry is internally synchronized: sources may be
// registered concurrently with compilations (a compile sees a
// registration that happens before it; compiled queries keep the source
// they resolved).
type Engine struct {
	opts Options

	// cache, when non-nil, is the shared cross-session region cache;
	// queries of a named view get a cache-aware answer document
	// (see Query.Document and SetRegionCache). cacheGen is the cache
	// generation sampled when the cache was installed: entries are
	// opened at that pinned generation, so an engine built before an
	// invalidation can never publish into entries fresh engines read.
	cache    *regioncache.Cache
	cacheGen uint64

	// regVer counts Register calls: the source-registry version that
	// region-cache keys pin entries to.
	regVer atomic.Uint64

	regMu sync.RWMutex
	reg   map[string]nav.Document

	// paths is the engine's table of path automata (see Automata).
	paths atomic.Pointer[Automata]

	// share is set for the all-caches engine, whose untraced queries
	// read their source-access chains from shared, one input per chain
	// and registry version (see share.go).
	share   bool
	shareMu sync.Mutex
	shared  []*input
}

// Automata is a table of path automata, one per path expression, keyed
// by its canonical string. Every open of every plan on an engine steps
// its engine's table, so transitions determinized by one descent are
// lookups for the next. An automaton depends on its expression alone —
// not on a source, a registry version, an option or a view — so
// Register keeps the table, and engines of successive source epochs may
// share one (see Engine.UseAutomata). Safe for concurrent use.
type Automata struct {
	mu sync.Mutex
	m  map[string]*pathexpr.DFA
}

// newAutomata returns an empty automaton table.
func newAutomata() *Automata { return &Automata{m: map[string]*pathexpr.DFA{}} }

// maxDFAs caps an automaton table; a full table drops an arbitrary
// automaton to make room, so a table that outlives many epochs keeps
// memoizing the paths its queries use now.
const maxDFAs = 256

// dfa returns the automaton of path p, building and keeping it on
// first use.
func (a *Automata) dfa(p *pathexpr.Expr) *pathexpr.DFA {
	key := p.String()
	a.mu.Lock()
	defer a.mu.Unlock()
	if d, ok := a.m[key]; ok {
		return d
	}
	if len(a.m) >= maxDFAs {
		for k := range a.m {
			delete(a.m, k)
			break
		}
	}
	d := pathexpr.NewDFA(pathexpr.Compile(p))
	a.m[key] = d
	return d
}

// Automata returns the engine's automaton table.
func (e *Engine) Automata() *Automata { return e.paths.Load() }

// UseAutomata makes plans compiled afterwards step the automata of a,
// typically the table of the engine an earlier source epoch built.
func (e *Engine) UseAutomata(a *Automata) { e.paths.Store(a) }

// pathDFA returns the automaton of path p from the engine's table.
func (e *Engine) pathDFA(p *pathexpr.Expr) *pathexpr.DFA { return e.paths.Load().dfa(p) }

// Register makes doc available to plans under the given source name.
// Registering an existing name replaces the source. The shared inputs
// derived at earlier registry versions are dropped; queries compiled
// before the call keep reading theirs.
func (e *Engine) Register(name string, doc nav.Document) {
	e.regMu.Lock()
	e.reg[name] = doc
	e.regMu.Unlock()
	e.retireShared(e.regVer.Add(1))
}

// RegistryVersion returns the source-registry version: the number of
// Register calls so far. Region-cache entries are pinned to the version
// a query was compiled against, so answers derived from different
// registry states never share an entry.
func (e *Engine) RegistryVersion() uint64 { return e.regVer.Load() }

// SetRegionCache installs the shared cross-session region cache.
// Queries compiled afterwards from a named view (see Prepare) return
// cache-aware answer documents from Document. Set it before compiling;
// it is not synchronized with concurrent Compile calls. A nil cache
// (the default) leaves every query uncached.
//
// The cache's current generation is pinned here: install the cache when
// the engine is built, so an engine that outlives an invalidation
// detaches from the shared entries instead of polluting the fresh
// generation.
func (e *Engine) SetRegionCache(c *regioncache.Cache) {
	e.cache = c
	if c != nil {
		e.cacheGen = c.Generation()
	}
}

// lookup resolves a registered source.
func (e *Engine) lookup(name string) (nav.Document, bool) {
	e.regMu.RLock()
	doc, ok := e.reg[name]
	e.regMu.RUnlock()
	return doc, ok
}

// Query is a compiled view: its sources resolved and its region-cache
// key fixed. Building a Query accesses no source and builds no pipeline.
type Query struct {
	view *View
	eng  *Engine

	// regVer completes the view's region-cache key (see RegionKey): the
	// registry version when the view's sources were resolved into srcs
	// (parallel to view.sources).
	regVer uint64
	srcs   []nav.Document

	entOnce sync.Once
	ent     *regioncache.Entry // see entry

	// top is the top-level pipeline behind the one log every answer
	// document replays, and ans the lazy answer root over it (see root).
	top *lazyLog
	ans Node

	// rec is the recorder of the navigation being served (nil: none),
	// traced the source documents of a pipeline built while one was set.
	rec    *trace.Recorder
	traced []*trace.Doc
}

// Compile resolves every source v names and samples the registry
// version; an unregistered source is the one error left to it. A named
// view's canonical plan is (re)indexed for the semantic tier on every
// compile, so a plan the index evicted is found again. No source is
// accessed and no operator pipeline is built: a query of a named view
// builds one only if it becomes its region-cache entry's producer.
func (e *Engine) Compile(v *View) (*Query, error) {
	q := &Query{view: v, eng: e, regVer: e.RegistryVersion(),
		srcs: make([]nav.Document, len(v.sources))}
	for i, name := range v.sources {
		doc, ok := e.lookup(name)
		if !ok {
			return nil, fmt.Errorf("core: plan references unregistered source %q", name)
		}
		q.srcs[i] = doc
	}
	if v.canon != nil && e.cache != nil {
		// Publish the canonical plan in the semantic index so other
		// queries of this view can discover it as a superset candidate
		// (IndexPlan drops stale generations itself).
		e.cache.IndexPlan(q.RegionKey(), v.canon)
	}
	return q, nil
}

// root returns the lazy root of the query's answer, built on the first
// call. The tree of lazy mediators behind it — the operator builders,
// stepping the engine's path DFAs — is built on its first pull, traced
// if a recorder is set then, and otherwise reading its chains from the
// engine's shared inputs where the engine shares (see share.go).
func (q *Query) root() Node {
	if q.ans != nil {
		return q.ans
	}
	c := &compiler{e: q.eng, q: q}
	input := q.view.plan
	td, isTD := input.(*algebra.TupleDestroy)
	if isTD {
		input = td.Input
	}
	top := &lazyLog{in: func() (cursor, error) {
		c.share = q.eng.share && q.rec == nil
		bb, err := c.compile(input)
		if err != nil {
			return nil, err
		}
		return bb()
	}}
	q.top = top
	if !isTD {
		q.ans = NewElem("bs", deferList(func() (list, error) {
			log, err := top.get()
			if err != nil {
				return nil, err
			}
			return bindingList{log: log, vars: q.view.topVars}, nil
		}))
		return q.ans
	}
	// The answer element resolves from the first binding only, pulled on
	// first navigation.
	q.ans = &lazyNode{resolve: func() (Node, error) {
		log, err := top.get()
		if err != nil {
			return nil, err
		}
		b, err := log.at(0)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, fmt.Errorf("core: tupleDestroy over empty binding list")
		}
		return b.node(td.Var)
	}}
	return q.ans
}

// CacheName returns the region-cache name the view was prepared under.
func (q *Query) CacheName() string { return q.view.name }

// Fingerprint returns the view's canonical plan fingerprint ("" for
// unnamed views). With CacheName it identifies the same answer document
// across engines — the region-cache key and the cluster routing key.
func (q *Query) Fingerprint() string { return q.view.fp }

// Document returns the virtual answer document, untraced (see
// TracedDocument).
func (q *Query) Document() nav.Document { return q.TracedDocument(nil) }

// TracedDocument returns the virtual answer document, tracing into rec
// (nil: none): the constructed answer element for tupleDestroy-rooted
// plans, else the binding-list tree bs[b[…]…] (the inter-mediator view
// of Fig. 2). Obtaining it and its root handle accesses no source.
//
// With a region cache and a cache name, the document reads the shared
// entry: a miss drives the entry's one producer, the answer of the first
// query that missed, with rec lent to it for the span of the miss.
func (q *Query) TracedDocument(rec *trace.Recorder) nav.Document {
	if e := q.entry(); e != nil {
		return regioncache.NewDoc(e, q.answer, rec)
	}
	d := &VDoc{root: q.root(), q: q}
	d.Trace(rec)
	return d
}

// answer builds the query's answer document afresh as its entry's
// producer: one the entry retired after a failed navigation keeps the
// error in its lazy streams.
func (q *Query) answer() nav.Document {
	q.ans, q.traced = nil, nil
	return &VDoc{root: q.root(), q: q}
}

// entry resolves the query's region-cache entry once: nil without an
// engine cache or a cache name, else regioncache.Cache.Open of RegionKey
// (L1, then the L2 fetch on creation). The first query to find the entry
// incomplete then makes the entry's one semantic attempt
// (regioncache.Cache.Subsume).
func (q *Query) entry() *regioncache.Entry {
	c := q.eng.cache
	if c == nil || q.view.name == "" {
		return nil
	}
	q.entOnce.Do(func() {
		q.ent = c.Open(q.RegionKey())
		if q.view.canon != nil && !q.ent.Complete() && q.ent.FirstSemantic() {
			c.Subsume(q.ent, q.view.canon, q.rebuild)
		}
	})
	return q.ent
}

// Warm resolves the query's entry the way Document does and reports
// whether it is now fully explored, so every navigation will be
// answered with zero source work. The cluster's routed-open path asks
// it before proxying; it is false without a region cache.
func (q *Query) Warm() bool {
	e := q.entry()
	return e != nil && e.Complete()
}

// bindingList renders the top-level log as a lazy list of b[…] nodes,
// growing it one binding per client pull: this is where the
// demand-driven navigation contract is enforced — a client step costs
// at most one pull through the pipeline.
type bindingList struct {
	log  *replayLog
	pos  int
	vars []string
}

func (l bindingList) next() (Node, list, error) {
	b, err := l.log.at(l.pos)
	if err != nil {
		return nil, nil, err
	}
	if b == nil {
		return nil, nil, nil
	}
	var kids list = emptyList{}
	for i := len(l.vars) - 1; i >= 0; i-- {
		v, err := b.node(l.vars[i])
		if err != nil {
			return nil, nil, err
		}
		kids = consList{head: NewElem(l.vars[i], singletonList(v)), tail: kids}
	}
	return NewElem("b", kids), bindingList{log: l.log, pos: l.pos + 1, vars: l.vars}, nil
}

// Materialize fully evaluates the query and returns the answer tree:
// the materialized answer element for tupleDestroy plans, the bs[…]
// binding tree otherwise. It is a convenience for callers that want
// the eager behaviour through the lazy machinery.
func (q *Query) Materialize() (*xmltree.Tree, error) {
	return nav.Materialize(q.Document())
}

// The per-binding kernels below are the operator bodies mapCursor
// applies (see pipeline.go).

func wrapListKernel(op *algebra.WrapList) func(*binding) (*binding, error) {
	varName, out := op.Var, &linkOp{to: op.Out}
	return func(b *binding) (*binding, error) {
		v, err := b.node(varName)
		if err != nil {
			return nil, err
		}
		return b.with(out, NewElem(xmltree.ListLabel, singletonList(v))), nil
	}
}

func constKernel(op *algebra.Const) func(*binding) (*binding, error) {
	value, out := op.Value, &linkOp{to: op.Out}
	return func(b *binding) (*binding, error) {
		return b.with(out, FromTree(value)), nil
	}
}

func renameKernel(op *algebra.Rename) func(*binding) (*binding, error) {
	ren := &linkOp{from: op.From, to: op.To}
	return func(b *binding) (*binding, error) {
		if _, err := b.node(ren.from); err != nil {
			return nil, err
		}
		if ren.from == ren.to {
			return b, nil
		}
		return b.rename(ren), nil
	}
}

func concatKernel(op *algebra.Concatenate) func(*binding) (*binding, error) {
	x, y, out := op.X, op.Y, &linkOp{to: op.Out}
	return func(b *binding) (*binding, error) {
		xv, err := b.node(x)
		if err != nil {
			return nil, err
		}
		yv, err := b.node(y)
		if err != nil {
			return nil, err
		}
		z := NewElem(xmltree.ListLabel, concatList{a: itemsOf(xv), b: itemsOf(yv)})
		return b.with(out, z), nil
	}
}

func createElementKernel(op *algebra.CreateElement) func(*binding) (*binding, error) {
	spec, ch, out := op.Label, op.Children, &linkOp{to: op.Out}
	return func(b *binding) (*binding, error) {
		cv, err := b.node(ch)
		if err != nil {
			return nil, err
		}
		// "c1 … cn are the subtrees of bin.ch": the new element
		// receives the *children* of the bound value (for a
		// list[…] value these are the listed items).
		kids := cv.Children()
		var el Node
		if spec.Var == "" {
			el = NewElem(spec.Const, kids)
		} else {
			// Dynamic label: resolved (one small materialization)
			// only when the element is actually looked at.
			labelVar := spec.Var
			el = &lazyNode{resolve: func() (Node, error) {
				lv, err := b.Value(labelVar)
				if err != nil {
					return nil, err
				}
				label := lv.Label
				if !lv.IsLeaf() {
					label = lv.TextContent()
				}
				return NewElem(label, kids), nil
			}}
		}
		return b.with(out, el), nil
	}
}

func projectKernel(op *algebra.Project) func(*binding) (*binding, error) {
	keep := op.Keep
	proj := &linkOp{keep: keep}
	return func(b *binding) (*binding, error) {
		for _, v := range keep {
			if _, err := b.node(v); err != nil {
				return nil, err
			}
		}
		return b.project(proj), nil
	}
}

// selectScanList enumerates the children of parent with the given label
// using d plus native select(σ) jumps (sel non-nil), falling back to
// the generic r/f scan when the source lacks the command.
type selectScanList struct {
	doc     nav.Document
	sel     nav.Selector // from nav.SelectorOf(doc); nil = generic scan
	parent  nav.ID       // when !started: the parent; else: the previous match
	label   string
	started bool
}

func (s selectScanList) selectFrom(p nav.ID, fromSelf bool) (nav.ID, error) {
	if s.sel != nil {
		return s.sel.SelectRight(p, nav.LabelIs(s.label), fromSelf)
	}
	return nav.Select(s.doc, p, nav.LabelIs(s.label), fromSelf)
}

func (s selectScanList) next() (Node, list, error) {
	var cur nav.ID
	var err error
	if !s.started {
		cur, err = s.doc.Down(s.parent)
		if err != nil {
			return nil, nil, err
		}
		if cur == nil {
			return nil, nil, nil
		}
		cur, err = s.selectFrom(cur, true)
	} else {
		cur, err = s.selectFrom(s.parent, false)
	}
	if err != nil {
		return nil, nil, err
	}
	if cur == nil {
		return nil, nil, nil
	}
	return &srcPos{doc: s.doc, id: cur},
		selectScanList{doc: s.doc, sel: s.sel, parent: cur, label: s.label, started: true}, nil
}

// labelFilterList filters a node list by label.
type labelFilterList struct {
	l     list
	label string
}

func (f labelFilterList) next() (Node, list, error) {
	l := f.l
	for {
		h, rest, err := l.next()
		if err != nil || h == nil {
			return nil, nil, err
		}
		lab, err := h.Label()
		if err != nil {
			return nil, nil, err
		}
		if lab == f.label {
			return h, labelFilterList{l: rest, label: f.label}, nil
		}
		l = rest
	}
}

// sourceBacked is implemented by nodes that directly wrap a source
// document node, enabling command pushdown (native select).
type sourceBacked interface {
	source() (nav.Document, nav.ID)
}

func asSourceBacked(v Node) (sourceBacked, bool) {
	for {
		if sb, ok := v.(sourceBacked); ok {
			return sb, true
		}
		ln, ok := v.(*lazyNode)
		if !ok {
			return nil, false
		}
		inner, err := ln.force()
		if err != nil {
			return nil, false
		}
		v = inner
	}
}
