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
	"slices"
	"sort"
	"strings"
	"sync"

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
	// Rewrite enables the navigational-complexity rewriting phase.
	Rewrite bool
	// LXPBatch, when > 1, makes sources registered with RegisterLXP
	// coalesce up to this many holes per fill round trip (the buffer's
	// Batch knob over lxp.FillMany). 0 or 1 keeps single-hole fills.
	LXPBatch int
}

// DefaultOptions enables every engine cache (core.DefaultOptions) and
// rewriting, and leaves LXP fills single-hole.
func DefaultOptions() Options {
	return Options{Engine: core.DefaultOptions(), Rewrite: true}
}

// Mediator is a configured MIX mediator instance. Queries may be
// prepared and evaluated from multiple goroutines; source/view
// registration should happen before serving queries (registrations
// are guarded, but a query races an in-flight registration it can see
// or miss).
//
// Preprocessing runs once per query text: the mediator memoizes, by the
// exact text, the final plan, its cache name, browsability and
// canonical form (see Query). The memo holds at most maxPrepared texts
// and is cleared by DefineView; the view catalogue and Options are its
// only other inputs, and it holds nothing tied to a registry version or
// cache generation.
type Mediator struct {
	opts   Options
	engine *core.Engine
	eager  *eager.Evaluator

	mu      sync.Mutex
	views   map[string]algebra.Op // tupleDestroy-rooted view plans
	viewVer uint64                // DefineView count: a prepare that spans one is not memoized
	nview   int
	memo    map[string]*prepared      // by query text
	buffers map[string]*buffer.Buffer // LXP buffers registered, by source name
}

// maxPrepared bounds the prepared-view memo. A full memo drops an
// arbitrary entry per insert, so a stream of fresh texts churns it
// without growing it.
const maxPrepared = 256

// prepared is the product of preprocessing one query text. It is shared,
// read-only, by every Result of the text, across goroutines.
type prepared struct {
	plan  algebra.Op // final (composed, rewritten) plan
	name  string     // region-cache name (cacheName of the composed views)
	cls   algebra.Browsability
	canon algebra.Op // canonical plan; nil when the plan has no canonical form
	fp    string     // canon's fingerprint ("" when canon is nil)
}

// New creates a mediator.
func New(opts Options) *Mediator {
	return &Mediator{
		opts:   opts,
		engine: core.New(opts.Engine),
		eager:  eager.New(),
		views:  map[string]algebra.Op{},
		memo:   map[string]*prepared{},
	}
}

// SetTracer installs a navigation-trace recorder on the mediator's
// engine: queries prepared after the call produce causal traces of how
// client navigations fan out through the lazy-mediator tree into
// source navigations (Result.SetTracer picks another recorder for one
// query). Install before the first Query; without a tracer, query
// evaluation is completely uninstrumented.
func (m *Mediator) SetTracer(rec *trace.Recorder) { m.engine.SetTracer(rec) }

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
// the query is composed with the view. It clears the prepared-view memo,
// so every later query text is composed afresh.
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
	m.viewVer++
	clear(m.memo)
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

// Document returns the virtual answer document. Obtaining it (and its
// root handle) performs no source access.
func (r *Result) Document() nav.Document { return r.query.Document() }

// SetTracer routes this result's navigation spans to rec instead of the
// mediator's recorder (see core.Query.SetTracer): sessions sharing one
// mediator each trace into their own. Call it before Document.
func (r *Result) SetTracer(rec *trace.Recorder) { r.query.SetTracer(rec) }

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

// Query preprocesses a XMAS query — once per text, then from the memo —
// and compiles the plan into a prepared Result. Compile errors surface
// here; the operator pipeline itself is built on the first navigation
// that reaches the engine, so an answer the region cache holds in full
// never builds one. No source is accessed.
func (m *Mediator) Query(xmasText string) (*Result, error) {
	p, err := m.prepare(xmasText)
	if err != nil {
		return nil, err
	}
	cq, err := m.engine.Compile(p.plan)
	if err != nil {
		return nil, fmt.Errorf("mediator: compiling plan: %w", err)
	}
	if p.canon != nil {
		cq.SetCacheKey(p.name, p.canon, p.fp)
	} else {
		// An opaque plan mints a fresh fingerprint per query, so no two
		// of its opens ever share an entry.
		cq.SetCacheName(p.name)
	}
	return &Result{Plan: p.plan, Browsability: p.cls, query: cq}, nil
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
	return p.plan, nil
}

// prepare returns the memoized preprocessing of xmasText, running
// preprocess on a miss. Errors are never memoized.
func (m *Mediator) prepare(xmasText string) (*prepared, error) {
	m.mu.Lock()
	p, ok := m.memo[xmasText]
	ver := m.viewVer
	m.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := m.preprocess(xmasText)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.viewVer == ver {
		if len(m.memo) >= maxPrepared {
			for k := range m.memo {
				delete(m.memo, k)
				break
			}
		}
		m.memo[xmasText] = p
	}
	m.mu.Unlock()
	return p, nil
}

// preprocess parses, composes, rewrites and validates a XMAS query and
// derives everything Query needs from the plan that depends on nothing
// else: cache name, browsability and canonical form.
func (m *Mediator) preprocess(xmasText string) (*prepared, error) {
	q, err := xmas.Parse(xmasText)
	if err != nil {
		return nil, err
	}
	plan, err := q.Translate()
	if err != nil {
		return nil, err
	}
	var views []string
	plan, err = m.compose(plan, &views)
	if err != nil {
		return nil, err
	}
	if m.opts.Rewrite {
		plan = algebra.Rewrite(plan)
	}
	if err := algebra.Validate(plan); err != nil {
		return nil, fmt.Errorf("mediator: composed plan invalid: %w", err)
	}
	cls, _ := algebra.Classify(plan, m.opts.Engine.NativeSelect)
	p := &prepared{plan: plan, name: cacheName(views), cls: cls}
	if canon, fp, ok := regioncache.Canonical(plan); ok {
		p.canon, p.fp = canon, fp
	}
	return p, nil
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
	// Any other operator is copied with its inputs substituted.
	return m.rebuild(p, depth, views)
}

func (m *Mediator) rebuild(p algebra.Op, depth int, views *[]string) (algebra.Op, error) {
	sub := func(q algebra.Op) (algebra.Op, error) { return m.substitute(q, depth, views) }
	switch op := p.(type) {
	case *algebra.GetDescendants:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.GetDescendants{Input: in, Parent: op.Parent, Path: op.Path, Out: op.Out}, nil
	case *algebra.Select:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.Select{Input: in, Cond: op.Cond}, nil
	case *algebra.Join:
		l, err := sub(op.Left)
		if err != nil {
			return nil, err
		}
		r, err := sub(op.Right)
		if err != nil {
			return nil, err
		}
		return &algebra.Join{Left: l, Right: r, Cond: op.Cond}, nil
	case *algebra.GroupBy:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.GroupBy{Input: in, By: op.By, Var: op.Var, Out: op.Out}, nil
	case *algebra.Concatenate:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.Concatenate{Input: in, X: op.X, Y: op.Y, Out: op.Out}, nil
	case *algebra.CreateElement:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.CreateElement{Input: in, Label: op.Label, Children: op.Children, Out: op.Out}, nil
	case *algebra.OrderBy:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.OrderBy{Input: in, Keys: op.Keys}, nil
	case *algebra.Project:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.Project{Input: in, Keep: op.Keep}, nil
	case *algebra.Union:
		l, err := sub(op.Left)
		if err != nil {
			return nil, err
		}
		r, err := sub(op.Right)
		if err != nil {
			return nil, err
		}
		return &algebra.Union{Left: l, Right: r}, nil
	case *algebra.Difference:
		l, err := sub(op.Left)
		if err != nil {
			return nil, err
		}
		r, err := sub(op.Right)
		if err != nil {
			return nil, err
		}
		return &algebra.Difference{Left: l, Right: r}, nil
	case *algebra.Distinct:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.Distinct{Input: in}, nil
	case *algebra.WrapList:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.WrapList{Input: in, Var: op.Var, Out: op.Out}, nil
	case *algebra.Const:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.Const{Input: in, Value: op.Value, Out: op.Out}, nil
	case *algebra.Rename:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.Rename{Input: in, From: op.From, To: op.To}, nil
	case *algebra.TupleDestroy:
		in, err := sub(op.Input)
		if err != nil {
			return nil, err
		}
		return &algebra.TupleDestroy{Input: in, Var: op.Var}, nil
	default:
		return nil, fmt.Errorf("mediator: cannot compose through %T", p)
	}
}
