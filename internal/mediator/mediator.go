// Package mediator is the MIX mediator facade (Fig. 1): it owns the
// registry of wrapped sources, the catalogue of XMAS view definitions,
// and the query-processing pipeline of Section 3:
//
//	preprocessing — parse the XMAS query, compose it with the views it
//	references (query ∘ view), and translate to an initial algebra plan;
//	rewriting     — optimize the plan for navigational complexity;
//	evaluation    — compile the plan into a tree of lazy mediators and
//	hand the client a virtual answer document.
//
// Clients consume answers either through nav.Document directly or
// through the thin XMLElement veneer of Section 5 (package mediator's
// Element type), which hides node-ids entirely.
package mediator

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mix/internal/algebra"
	"mix/internal/buffer"
	"mix/internal/core"
	"mix/internal/eager"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/trace"
	"mix/internal/xmas"
	"mix/internal/xmltree"
)

// Options configure a Mediator.
type Options struct {
	// Engine options (operator caches, native select).
	Engine core.Options
	// LXPBatch, when > 1, makes sources registered with RegisterLXP
	// coalesce up to this many holes per fill round trip (the buffer's
	// Batch knob over lxp.FillMany). 0 or 1 keeps single-hole fills.
	LXPBatch int
}

// DefaultOptions enables every engine cache (core.DefaultOptions) and
// leaves LXP fills single-hole.
func DefaultOptions() Options {
	return Options{Engine: core.DefaultOptions()}
}

// Mediator is a configured MIX mediator instance. Queries may be
// prepared and evaluated from multiple goroutines; source/view
// registration should happen before serving queries (registrations
// are guarded, but a query races an in-flight registration it can see
// or miss).
//
// Preprocessing runs once per query text: the mediator memoizes, by the
// exact text, the prepared view (core.Prepare: the final plan, validated
// and keyed for the region cache) and its browsability (see Query). A
// text it has not seen is preprocessed once per query shape instead —
// the text with its literals lifted out (xmas.Query.Shape): on a shape's
// second sighting the mediator preprocesses one template of it, with
// sentinel literals, and binds every later text's literals into the
// template's view (core.View.Bind). The memos and the engine's path
// automata read no source (see Memos), so a mediator built for a later
// source epoch may adopt an earlier one's (Adopt).
type Mediator struct {
	opts   Options
	engine *core.Engine
	eager  *eager.Evaluator
	memos  atomic.Pointer[Memos] // replaced, never cleared, by DefineView and Adopt

	mu      sync.Mutex
	views   map[string]algebra.Op // tupleDestroy-rooted view plans
	nview   int
	buffers map[string]*buffer.Buffer // LXP buffers registered, by source name
}

// Memos is a mediator's compile state that reads no source: the
// prepared-view memo by query text, the shape memo and the engine's
// path-automaton table. Its only inputs are the mediator's Options and
// view definitions, which it records and never changes: DefineView
// moves its mediator onto fresh memos instead of clearing shared ones.
// Mediators with equal options and views may therefore share one Memos
// by reference (Adopt), across source epochs; it holds no source,
// buffer, registry version or cache generation, so sharing it keeps no
// retired catalog alive. Each memo holds at most maxPrepared entries.
type Memos struct {
	opts  Options
	defs  map[string]string // view name → XMAS text
	paths *core.Automata

	mu     sync.Mutex
	memo   map[string]memoEntry   // by query text
	shapes map[string]*shapeEntry // by query shape; nil until the second sighting
}

func newMemos(opts Options, defs map[string]string, paths *core.Automata) *Memos {
	return &Memos{opts: opts, defs: defs, paths: paths,
		memo: map[string]memoEntry{}, shapes: map[string]*shapeEntry{}}
}

// maxPrepared bounds the prepared-view memo and the shape memo (see
// bounded).
const maxPrepared = 256

// memoEntry is the product of preprocessing one query text. Its view is
// shared, read-only, by every Result of the text, across goroutines.
type memoEntry struct {
	view *core.View
	cls  algebra.Browsability
}

// shapeEntry is the preprocessed template of a query shape: the view of
// its plan, whose i-th literal is sentinels[i] (xmas.Query.Template).
type shapeEntry struct {
	memoEntry
	sentinels []string
}

// bind returns the preprocessing of the query of the shape whose
// literals are lits.
func (s *shapeEntry) bind(lits []xmas.Literal) memoEntry {
	m := make(map[string]string, len(lits))
	for i, l := range lits {
		m[s.sentinels[i]] = l.Value
	}
	return memoEntry{view: s.view.Bind(m), cls: s.cls}
}

// New creates a mediator.
func New(opts Options) *Mediator {
	m := &Mediator{
		opts:   opts,
		engine: core.New(opts.Engine),
		eager:  eager.New(),
		views:  map[string]algebra.Op{},
	}
	m.memos.Store(newMemos(opts, nil, m.engine.Automata()))
	return m
}

// Memos returns the mediator's current compile state (see Memos).
func (m *Mediator) Memos() *Memos { return m.memos.Load() }

// Adopt moves m onto t, the memos of another mediator, when both were
// built with equal Options and view definitions, and reports whether it
// did: the views t holds then compose exactly as m's would, and its
// automata step as m's would. A server hands a retired catalog's memos
// to the next one, so a new source epoch re-prepares no query text it
// has seen. Call it before serving queries.
func (m *Mediator) Adopt(t *Memos) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.memos.Load()
	if t == nil || t.opts != cur.opts || !maps.Equal(t.defs, cur.defs) {
		return false
	}
	m.memos.Store(t)
	m.engine.UseAutomata(t.paths)
	return true
}

// SetRegionCache installs a shared cross-session region cache: answer
// documents of queries prepared after the call serve already-explored
// regions from the cache (published by any mediator sharing it) instead
// of re-deriving them. The cache's generation is pinned here, so
// install it before registering sources and serving queries. A nil
// cache (the default) changes nothing.
func (m *Mediator) SetRegionCache(c *regioncache.Cache) { m.engine.SetRegionCache(c) }

// RegisterSource exposes an arbitrary navigable document under name.
func (m *Mediator) RegisterSource(name string, doc nav.Document) {
	m.engine.Register(name, doc)
	m.eager.Register(name, doc)
}

// RegisterTree exposes a materialized tree under name.
func (m *Mediator) RegisterTree(name string, t *xmltree.Tree) {
	m.RegisterSource(name, nav.NewTreeDoc(t))
}

// RegisterLXP places the generic buffer component (Fig. 7) in front of
// an LXP wrapper (local or remote) and exposes the buffered source
// under name. Nothing is sent to the wrapper: the buffer opens its
// session when a plan first navigates the source, which is also where
// a wrong uri surfaces. The buffer's scan lookahead is always on.
// Every query of the mediator navigates this one open tree, so a fill
// or get_root any of them pays is paid for all.
func (m *Mediator) RegisterLXP(name string, srv lxp.Server, uri string) (*buffer.Buffer, error) {
	b, _ := buffer.New(srv, uri) // never fails: New sends nothing
	b.Batch = m.opts.LXPBatch
	b.EnableLookahead()
	m.RegisterSource(name, b)
	m.mu.Lock()
	if m.buffers == nil {
		m.buffers = map[string]*buffer.Buffer{}
	}
	m.buffers[name] = b
	m.mu.Unlock()
	return b, nil
}

// BufferStats returns per-source fill accounting (round trips, batched
// fills, prefetch errors) for every LXP buffer registered through
// RegisterLXP; the server's stats op surfaces it to clients. No two
// mediators share a buffer, so sums over mediators count each fill
// once.
func (m *Mediator) BufferStats() map[string]buffer.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.buffers) == 0 {
		return nil
	}
	out := make(map[string]buffer.Stats, len(m.buffers))
	for name, b := range m.buffers {
		out[name] = b.Stats()
	}
	return out
}

// DefineView registers a XMAS view definition under the given name.
// Queries may then use the name like a source; at preprocessing time
// the query is composed with the view. It moves the mediator onto
// fresh prepared-view and shape memos, so every later query text is
// composed afresh; a mediator sharing the old memos keeps them.
func (m *Mediator) DefineView(name, xmasText string) error {
	q, err := xmas.Parse(xmasText)
	if err != nil {
		return fmt.Errorf("mediator: view %q: %w", name, err)
	}
	plan, err := q.Translate()
	if err != nil {
		return fmt.Errorf("mediator: view %q: %w", name, err)
	}
	m.mu.Lock()
	m.views[name] = plan
	old := m.memos.Load()
	defs := maps.Clone(old.defs)
	if defs == nil {
		defs = map[string]string{}
	}
	defs[name] = xmasText
	m.memos.Store(newMemos(old.opts, defs, old.paths))
	m.mu.Unlock()
	return nil
}

// Result is a prepared query: the plan that will be (or was) evaluated
// and the virtual answer document.
type Result struct {
	// Plan is the final (composed, rewritten) algebra plan. It is
	// shared by every Result of the same query text: read-only.
	Plan algebra.Op
	// Browsability is the static classification of the plan
	// (Definition 2), under the engine's navigation command set.
	Browsability algebra.Browsability

	query *core.Query
}

// Document returns the virtual answer document, untraced. Obtaining it
// (and its root handle) performs no source access.
func (r *Result) Document() nav.Document { return r.query.Document() }

// TracedDocument returns the virtual answer document, tracing into rec
// (nil: none). It is the one way to trace an answer: sessions sharing
// one mediator each trace into their own recorder.
func (r *Result) TracedDocument(rec *trace.Recorder) nav.Document { return r.query.TracedDocument(rec) }

// CacheKey returns the (view name, canonical plan fingerprint) pair
// that identifies this query's answer document across mediator
// instances — the region-cache entry key and the cluster session
// routing key.
func (r *Result) CacheKey() (name, fingerprint string) {
	return r.query.CacheName(), r.query.Fingerprint()
}

// SemanticWarm resolves the query's region entry (core.Query.Warm: L1,
// L2 on creation, the semantic attempt) and reports whether it is now
// fully explored — every navigation will be answered with zero source
// work, whether an exact L2 fill or a subsuming region made it so. The
// cluster's routed-open path uses it to serve such a query locally
// instead of proxying to the owner.
func (r *Result) SemanticWarm() bool { return r.query.Warm() }

// RegionKey returns the full region-cache key of the query's answer
// document — CacheKey plus the generation and registry version pinned
// at compile time.
func (r *Result) RegionKey() regioncache.Key { return r.query.RegionKey() }

// Root returns the answer root as a client-library element.
func (r *Result) Root() (*Element, error) { return Wrap(r.Document()) }

// Materialize fully evaluates the answer.
func (r *Result) Materialize() (*xmltree.Tree, error) { return r.query.Materialize() }

// Query preprocesses a XMAS query — once per text or query shape, then
// from the memos — and compiles the prepared view into a Result.
// Compile errors surface here; the operator pipeline itself is built on
// the first navigation that reaches the engine, so an answer the region
// cache holds in full never builds one. No source is accessed.
func (m *Mediator) Query(xmasText string) (*Result, error) {
	p, err := m.prepare(xmasText)
	if err != nil {
		return nil, err
	}
	cq, err := m.engine.Compile(p.view)
	if err != nil {
		return nil, fmt.Errorf("mediator: compiling plan: %w", err)
	}
	return &Result{Plan: p.view.Plan(), Browsability: p.cls, query: cq}, nil
}

// cacheName renders the region-cache name of a query composed from the
// given views: the sorted, deduplicated view names joined with "+"
// ("query" when the plan references no view). Together with the
// canonical plan fingerprint this names the same answer document across
// mediator instances.
func cacheName(views []string) string {
	if len(views) == 0 {
		return "query"
	}
	uniq := append([]string(nil), views...)
	sort.Strings(uniq)
	uniq = slices.Compact(uniq)
	return strings.Join(uniq, "+")
}

// QueryEager evaluates the query with the materializing baseline
// evaluator instead of the lazy engine.
func (m *Mediator) QueryEager(xmasText string) (*xmltree.Tree, error) {
	plan, err := m.Prepare(xmasText)
	if err != nil {
		return nil, err
	}
	return m.eager.Eval(plan)
}

// Prepare parses, composes and rewrites a XMAS query into its final
// algebra plan without compiling it. The plan is shared with every other
// caller of the same text and must not be modified.
func (m *Mediator) Prepare(xmasText string) (algebra.Op, error) {
	p, err := m.prepare(xmasText)
	if err != nil {
		return nil, err
	}
	return p.view.Plan(), nil
}

// prepare returns the memoized preprocessing of xmasText, else parses
// it and preprocesses it by its shape (fromShape). Errors are never
// memoized. The memos are sampled once: a DefineView under way replaces
// them, and what this call preprocessed enters only memos that are
// still the mediator's, so no memo keeps a plan composed with views
// other than its own.
func (m *Mediator) prepare(xmasText string) (memoEntry, error) {
	t := m.memos.Load()
	t.mu.Lock()
	p, ok := t.memo[xmasText]
	t.mu.Unlock()
	if ok {
		return p, nil
	}
	q, err := xmas.Parse(xmasText)
	if err != nil {
		return memoEntry{}, err
	}
	p, err = m.fromShape(q, t)
	if err != nil {
		return memoEntry{}, err
	}
	m.keep(t, func() {
		bounded(t.memo)
		t.memo[xmasText] = p
	})
	return p, nil
}

// keep runs add, which writes one of t's memos, if t is still m's
// memos. DefineView replaces them under m.mu after writing the view, so
// a plan composed before the replacement is kept only in the memos of
// the views it was composed with.
func (m *Mediator) keep(t *Memos, add func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.memos.Load() != t {
		return
	}
	t.mu.Lock()
	add()
	t.mu.Unlock()
}

// fromShape preprocesses q, whose memos are t, by its shape.
// A query without literals, or of a shape not seen before, is
// preprocessed whole, the shape then marked seen. On the second
// sighting the shape's template is preprocessed and kept, and this and
// every later query of the shape bind their literals into its view. A
// template that fails to preprocess is not kept, and q is preprocessed
// whole, so an invalid text fails with its own error.
func (m *Mediator) fromShape(q *xmas.Query, t *Memos) (memoEntry, error) {
	if len(q.Literals) == 0 {
		return m.preprocess(q)
	}
	shape := q.Shape()
	t.mu.Lock()
	s, seen := t.shapes[shape]
	t.mu.Unlock()
	if !seen {
		m.keep(t, func() {
			if _, ok := t.shapes[shape]; !ok {
				bounded(t.shapes)
				t.shapes[shape] = nil
			}
		})
		return m.preprocess(q)
	}
	if s == nil {
		tq, sentinels := q.Template()
		p, err := m.preprocess(tq)
		if err != nil {
			return m.preprocess(q)
		}
		s = &shapeEntry{memoEntry: p, sentinels: sentinels}
		m.keep(t, func() {
			bounded(t.shapes)
			t.shapes[shape] = s
		})
	}
	return s.bind(q.Literals), nil
}

// bounded makes room for one more entry in a memo: a full memo drops an
// arbitrary entry, so a stream of fresh keys churns it without growing
// it. Caller holds the memos' lock.
func bounded[V any](memo map[string]V) {
	if len(memo) < maxPrepared {
		return
	}
	for k := range memo {
		delete(memo, k)
		return
	}
}

// preprocess composes and rewrites a parsed XMAS query, prepares the
// plan under the composed views' cache name (core.Prepare validates and
// canonicalizes it) and classifies its browsability.
func (m *Mediator) preprocess(q *xmas.Query) (memoEntry, error) {
	plan, err := q.Translate()
	if err != nil {
		return memoEntry{}, err
	}
	var views []string
	plan, err = m.compose(plan, &views)
	if err != nil {
		return memoEntry{}, err
	}
	plan = algebra.Rewrite(plan)
	view, err := core.Prepare(plan, cacheName(views))
	if err != nil {
		return memoEntry{}, fmt.Errorf("mediator: composed plan invalid: %w", err)
	}
	cls, _ := algebra.Classify(plan, m.opts.Engine.NativeSelect)
	return memoEntry{view: view, cls: cls}, nil
}

// compose substitutes each Source node that names a defined view with
// the view's body (query ∘ view): the view plan's answer element is
// bound to the source variable, with the view's internal variables
// renamed fresh. Substituted view names are appended to *views.
func (m *Mediator) compose(plan algebra.Op, views *[]string) (algebra.Op, error) {
	return m.substitute(plan, 0, views)
}

const maxViewDepth = 16

func (m *Mediator) substitute(p algebra.Op, depth int, views *[]string) (algebra.Op, error) {
	if depth > maxViewDepth {
		return nil, fmt.Errorf("mediator: view nesting deeper than %d (cyclic views?)", maxViewDepth)
	}
	if src, ok := p.(*algebra.Source); ok {
		m.mu.Lock()
		view, isView := m.views[src.URL]
		if isView {
			m.nview++
		}
		n := m.nview
		m.mu.Unlock()
		if !isView {
			return p, nil
		}
		*views = append(*views, src.URL)
		td, ok := view.(*algebra.TupleDestroy)
		if !ok {
			return nil, fmt.Errorf("mediator: view %q has no tupleDestroy root", src.URL)
		}
		prefix := fmt.Sprintf("view%d~", n)
		renamed, err := algebra.RenameVars(td.Input, func(v string) string { return prefix + v })
		if err != nil {
			return nil, err
		}
		// Views may themselves reference views.
		renamed, err = m.substitute(renamed, depth+1, views)
		if err != nil {
			return nil, err
		}
		body := &algebra.Rename{
			Input: &algebra.Project{Input: renamed, Keep: []string{prefix + td.Var}},
			From:  prefix + td.Var,
			To:    src.Var,
		}
		return body, nil
	}
	// Any other operator is copied with its inputs substituted; the
	// first error stops the walk.
	var err error
	q := algebra.MapInputs(p, func(in algebra.Op) algebra.Op {
		if err != nil {
			return in
		}
		out, e := m.substitute(in, depth, views)
		if e != nil {
			err = e
			return in
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	return q, nil
}
