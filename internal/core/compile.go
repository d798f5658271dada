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

	// tracer is the recorder every query compiled afterwards starts
	// with (see SetTracer in trace.go). nil — the default — compiles
	// plans with no instrumentation at all.
	tracer *trace.Recorder

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

	// intern canonicalizes the label vocabulary the engine's DFA caches
	// key on; shared across all plans compiled by this engine.
	intern *xmltree.Interner

	// dfas keeps the automaton of each path expression, keyed by its
	// canonical string, for the engine's lifetime (see pathDFA).
	dfaMu sync.Mutex
	dfas  map[string]*pathexpr.DFA
}

// maxDFAs caps the engine's automaton memo; a path first seen past the
// cap gets a private automaton, as a fresh compile would.
const maxDFAs = 256

// pathDFA returns the lazy DFA of path p. Every open of every plan on
// the engine shares one automaton per path, so transitions determinized
// by one descent are map hits for the next. Automata depend on the
// expression alone, so Register keeps them.
func (e *Engine) pathDFA(p *pathexpr.Expr) *pathexpr.DFA {
	key := p.String()
	e.dfaMu.Lock()
	defer e.dfaMu.Unlock()
	if d, ok := e.dfas[key]; ok {
		return d
	}
	d := pathexpr.NewDFA(pathexpr.Compile(p), e.intern)
	if len(e.dfas) < maxDFAs {
		e.dfas[key] = d
	}
	return d
}

// Register makes doc available to plans under the given source name.
// Registering an existing name replaces the source.
func (e *Engine) Register(name string, doc nav.Document) {
	e.regMu.Lock()
	e.reg[name] = doc
	e.regMu.Unlock()
	e.regVer.Add(1)
}

// RegistryVersion returns the source-registry version: the number of
// Register calls so far. Region-cache entries are pinned to the version
// a query was compiled against, so answers derived from different
// registry states never share an entry.
func (e *Engine) RegistryVersion() uint64 { return e.regVer.Load() }

// SetRegionCache installs the shared cross-session region cache.
// Queries compiled afterwards from a named view (see Prepare) return
// cache-aware answer documents from Document. Set it before compiling;
// it is not synchronized with concurrent Compile calls. A nil cache (the default) leaves every query uncached. The cache's
// current generation is pinned here: install the cache when the engine
// is built, so an engine that outlives an invalidation detaches from
// the shared entries instead of polluting the fresh generation.
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

// Query is a compiled view: the tree of lazy mediators, ready to serve
// navigations. Building a Query performs no source access.
type Query struct {
	view *View
	eng  *Engine

	// fingerprint/regVer complete the view's region-cache key (see
	// RegionKey); both are fixed at compile time, regVer when the view's
	// sources are resolved.
	fingerprint string
	regVer      uint64

	// semMu/semTried gate the one semantic-cache attempt per query (see
	// entry): it runs on the first demand open that finds the entry
	// incomplete, and its verdict — materialized into the entry on a
	// hit — is served by the exact-match layer forever after.
	semMu    sync.Mutex
	semTried bool

	// top is the query's top-level pipeline behind the one log every
	// Document replays. For tupleDestroy plans it is the pipeline of the
	// root's input and answer the lazy root node of the virtual answer
	// document resolved from its first binding; otherwise answer is nil
	// and Document renders the log as the bs[b[…]…] binding tree.
	top    *lazyLog
	answer Node

	// tracer is the recorder of the query's spans (see SetTracer);
	// nil compiles the pipeline with no instrumentation.
	tracer *trace.Recorder
}

// Compile resolves every source v names and samples the registry
// version; an unregistered source is the one error left to it. A named
// view's canonical plan is (re)indexed for the semantic tier on every
// compile, so a plan the index evicted is found again. The tree of lazy
// mediators — the operator builders, stepping the engine's path DFAs —
// is built on the first pull of the top-level log, so a query whose
// answer the region cache already holds in full never builds one. No
// source is accessed.
func (e *Engine) Compile(v *View) (*Query, error) {
	q := &Query{view: v, eng: e, fingerprint: v.fp, regVer: e.RegistryVersion(), tracer: e.tracer}
	c := &compiler{e: e, q: q, srcs: make(map[string]nav.Document, len(v.sources))}
	for _, name := range v.sources {
		doc, ok := e.lookup(name)
		if !ok {
			return nil, fmt.Errorf("core: plan references unregistered source %q", name)
		}
		c.srcs[name] = doc
	}
	if v.opaque != "" {
		// An opaque plan mints a fresh fingerprint per query, so no two
		// of its opens ever share an entry.
		q.fingerprint = regioncache.OpaqueFingerprint(v.opaque)
	}
	if v.canon != nil && e.cache != nil {
		// Publish the canonical plan in the semantic index so other
		// queries of this view can discover it as a superset candidate
		// (IndexPlan drops stale generations itself).
		e.cache.IndexPlan(q.RegionKey(), v.canon)
	}
	input := v.plan
	td, isTD := input.(*algebra.TupleDestroy)
	if isTD {
		input = td.Input
	}
	q.top = &lazyLog{in: func() (cursor, error) {
		c.ks = newKeyspace()
		bb, err := c.compile(input)
		if err != nil {
			return nil, err
		}
		return bb()
	}}
	if isTD {
		// The answer element resolves from the first binding only, pulled
		// on first navigation.
		q.answer = &lazyNode{resolve: func() (Node, error) {
			log, err := q.top.get()
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
	}
	return q, nil
}

// CacheName returns the region-cache name the view was prepared under.
func (q *Query) CacheName() string { return q.view.name }

// Fingerprint returns the view's canonical plan fingerprint, or the
// opaque one minted at compile time ("" for unnamed views). With
// CacheName it identifies the same answer document across engines — the
// region-cache key and the cluster routing key.
func (q *Query) Fingerprint() string { return q.fingerprint }

// Document returns the virtual answer document. For tupleDestroy-rooted
// plans this is the constructed answer element; for other plans it is
// the binding-list tree bs[b[…]…] (the inter-mediator view of Fig. 2).
// Obtaining the document and its root handle accesses no source.
//
// When the engine has a region cache and the query a cache name, the
// returned document is cache-aware: navigations over regions another
// session (or an earlier Document of this query) already explored are
// answered from the shared cache without touching this query's lazy
// streams; only cache misses drive them.
func (q *Query) Document() nav.Document {
	root := q.answer
	if root == nil {
		root = q.bindingsNode()
	}
	inner := NewVDoc(root)
	entry := q.entry()
	if entry == nil {
		return inner
	}
	doc := regioncache.NewDoc(entry, inner)
	if rec := q.tracer; rec != nil {
		doc.Observe = func(op string, hit bool) {
			label := "cache:miss"
			if hit {
				label = "cache:hit"
			}
			rec.End(rec.Begin(label, op))
		}
	}
	return doc
}

// entry resolves the query's region-cache entry: nil without an engine
// cache or a cache name, else regioncache.Cache.Open of RegionKey (L1,
// then the L2 fetch on creation). It then makes the query's one
// semantic attempt (regioncache.Cache.Subsume) if the entry is not
// already complete.
func (q *Query) entry() *regioncache.Entry {
	c := q.eng.cache
	if c == nil || q.view.name == "" {
		return nil
	}
	e := c.Open(q.RegionKey())
	if q.view.canon != nil {
		q.semMu.Lock()
		if !q.semTried && !e.Complete() {
			q.semTried = true
			c.Subsume(e, q.view.canon, q.rebuild)
		}
		q.semMu.Unlock()
	}
	return e
}

// Warm resolves the query's entry the way Document does and reports
// whether it is now fully explored, so every navigation will be
// answered with zero source work. The cluster's routed-open path asks
// it before proxying; it is false without a region cache.
func (q *Query) Warm() bool {
	e := q.entry()
	return e != nil && e.Complete()
}

// bindingsNode renders the top-level binding list as a lazy
// bs[b[X[…]…]…] tree in plan OutVars order.
func (q *Query) bindingsNode() Node {
	return NewElem("bs", deferList(func() (list, error) {
		log, err := q.top.get()
		if err != nil {
			return nil, err
		}
		return bindingList{log: log, vars: q.view.topVars}, nil
	}))
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

// dfaFrame lazily enumerates, in document order, the descendants
// reachable through paths the lazy DFA accepts. A frame is one level of
// a persistent descent: sibs are the siblings still to visit at this
// level, state the DFA state before each of their labels (each
// transition a memoized map hit), and once sibs run out the enclosing
// level resumes at its siblings resume under frame up. Subtrees whose
// state cannot reach acceptance are pruned without exploration, and so
// are the children of a match no label can extend (homes.home never
// reads a home's children); every match or alive sibling costs exactly
// one allocation, the frame the descent continues from.
type dfaFrame struct {
	dfa    *pathexpr.DFA
	up     *dfaFrame
	state  int
	sibs   list
	resume list // up's siblings after the one this frame descends from
}

func newDFAMatchList(dfa *pathexpr.DFA, parent Node) *dfaFrame {
	return &dfaFrame{dfa: dfa, state: dfa.Start().ID, sibs: parent.Children()}
}

func (f *dfaFrame) next() (Node, list, error) {
	dfa := f.dfa
	sibs := f.sibs
	for {
		c, rest, err := sibs.next()
		if err != nil {
			return nil, nil, err
		}
		if c == nil {
			if f.up == nil {
				return nil, nil, nil
			}
			sibs, f = f.resume, f.up
			continue
		}
		label, err := c.Label()
		if err != nil {
			return nil, nil, err
		}
		st := dfa.Step(f.state, label)
		if !st.Alive {
			sibs = rest
			continue
		}
		if !st.Descends {
			// An alive state that cannot descend accepts: a match whose
			// children cannot extend it. Continue with its siblings.
			return c, &dfaFrame{dfa: dfa, up: f.up, state: f.state, sibs: rest, resume: f.resume}, nil
		}
		f = &dfaFrame{dfa: dfa, up: f, state: st.ID, sibs: c.Children(), resume: rest}
		if st.Accepting {
			return c, f, nil
		}
		sibs = f.sibs
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
