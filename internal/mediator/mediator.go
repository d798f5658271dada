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
	"context"
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
	"mix/internal/metrics"
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
type Mediator struct {
	opts   Options
	engine *core.Engine
	eager  *eager.Evaluator
	cache  *regioncache.Cache

	mu      sync.Mutex
	views   map[string]algebra.Op // tupleDestroy-rooted view plans
	nview   int
	buffers map[string]*buffer.Buffer // LXP buffers this mediator opened, by source name
}

// New creates a mediator.
func New(opts Options) *Mediator {
	return &Mediator{
		opts:   opts,
		engine: core.New(opts.Engine),
		eager:  eager.New(),
		views:  map[string]algebra.Op{},
	}
}

// SetTracer installs a navigation-trace recorder on the mediator's
// engine: queries prepared after the call produce causal traces of how
// client navigations fan out through the lazy-mediator tree into
// source navigations. Install before the first Query; without a
// tracer, query evaluation is completely uninstrumented.
func (m *Mediator) SetTracer(rec *trace.Recorder) { m.engine.SetTracer(rec) }

// SetRegionCache installs a shared cross-session region cache: answer
// documents of queries prepared after the call serve already-explored
// regions from the cache (published by any mediator sharing it) instead
// of re-deriving them, and LXP sources registered after the call share
// one buffer with every mediator of the cache that registers them (see
// RegisterLXP). Install before registering sources and serving queries.
// A nil cache (the default) changes nothing.
func (m *Mediator) SetRegionCache(c *regioncache.Cache) {
	m.cache = c
	m.engine.SetRegionCache(c)
}

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
//
// With a region cache installed, the buffer is shared: every mediator
// of the cache that registers the same name and uri in the same cache
// generation, at the same registry version, navigates one open tree —
// the first builds it with its own LXPBatch, the rest join it — so a
// fill or get_root any engine pays (a session's or a speculative
// drain's) is paid for all.
// Like region-cache keys, this assumes such registrations serve the
// same data. A mediator whose pinned generation is already stale gets
// a private buffer. Without a cache every registration builds its own.
func (m *Mediator) RegisterLXP(name string, srv lxp.Server, uri string) (*buffer.Buffer, error) {
	open := func() nav.Document {
		b, _ := buffer.New(srv, uri) // never fails: New sends nothing
		b.Batch = m.opts.LXPBatch
		b.EnableLookahead()
		return b
	}
	var doc nav.Document
	opened := true
	if m.cache != nil {
		// Keyed by the registry version the registration below will
		// establish.
		doc, opened = m.cache.Source(regioncache.Key{
			Generation:  m.engine.CacheGeneration(),
			Registry:    m.engine.RegistryVersion() + 1,
			Name:        "src:" + name,
			Fingerprint: "lxp:" + uri,
		}, open)
	} else {
		doc = open()
	}
	b := doc.(*buffer.Buffer)
	m.RegisterSource(name, b)
	if opened {
		m.mu.Lock()
		if m.buffers == nil {
			m.buffers = map[string]*buffer.Buffer{}
		}
		m.buffers[name] = b
		m.mu.Unlock()
	}
	return b, nil
}

// BufferStats returns per-source fill accounting (round trips, batched
// fills, prefetch errors) for every LXP buffer this mediator opened
// through RegisterLXP; the server's stats op surfaces it to clients. A
// buffer shared through the region cache is reported only by the
// mediator that opened it, never by those that joined it, so sums over
// mediators count each fill once.
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
// the query is composed with the view.
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
	m.mu.Unlock()
	return nil
}

// Result is a prepared query: the plan that will be (or was) evaluated
// and the virtual answer document.
type Result struct {
	// Plan is the final (composed, rewritten) algebra plan.
	Plan algebra.Op
	// Browsability is the static classification of the plan
	// (Definition 2), under the engine's navigation command set.
	Browsability algebra.Browsability

	query *core.Query
}

// Document returns the virtual answer document. Obtaining it (and its
// root handle) performs no source access.
func (r *Result) Document() nav.Document { return r.query.Document() }

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
// at compile time. Prefetch successor tables are keyed by it, so model
// state can only ever warm the entry the observing sessions read.
func (r *Result) RegionKey() regioncache.Key { return r.query.RegionKey() }

// PrefetchRegion speculatively drains one top-level region of the
// answer document under a budget, publishing through the normal region
// cache path (see core.Query.PrefetchRegion).
func (r *Result) PrefetchRegion(ctx context.Context, region int, deep bool, budget core.PrefetchBudget, counters *metrics.Counters) (core.PrefetchResult, error) {
	return r.query.PrefetchRegion(ctx, region, deep, budget, counters)
}

// Root returns the answer root as a client-library element.
func (r *Result) Root() (*Element, error) { return Wrap(r.Document()) }

// Materialize fully evaluates the answer.
func (r *Result) Materialize() (*xmltree.Tree, error) { return r.query.Materialize() }

// Query runs the full preprocessing pipeline on a XMAS query and
// returns a prepared Result. No source is accessed.
func (m *Mediator) Query(xmasText string) (*Result, error) {
	plan, views, err := m.prepare(xmasText)
	if err != nil {
		return nil, err
	}
	cq, err := m.engine.Compile(plan)
	if err != nil {
		return nil, fmt.Errorf("mediator: compiling plan: %w", err)
	}
	cq.SetCacheName(cacheName(views))
	cls, _ := algebra.Classify(plan, m.opts.Engine.NativeSelect)
	return &Result{Plan: plan, Browsability: cls, query: cq}, nil
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
// algebra plan without compiling it.
func (m *Mediator) Prepare(xmasText string) (algebra.Op, error) {
	plan, _, err := m.prepare(xmasText)
	return plan, err
}

// prepare is Prepare plus the names of the views the query was composed
// with (in substitution order, possibly with duplicates).
func (m *Mediator) prepare(xmasText string) (algebra.Op, []string, error) {
	q, err := xmas.Parse(xmasText)
	if err != nil {
		return nil, nil, err
	}
	plan, err := q.Translate()
	if err != nil {
		return nil, nil, err
	}
	var views []string
	plan, err = m.compose(plan, &views)
	if err != nil {
		return nil, nil, err
	}
	if m.opts.Rewrite {
		plan = algebra.Rewrite(plan)
	}
	if err := algebra.Validate(plan); err != nil {
		return nil, nil, fmt.Errorf("mediator: composed plan invalid: %w", err)
	}
	return plan, views, nil
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
		m.nview++
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
	// Recurse into inputs via a rebuild using RenameVars' structure:
	// rather than duplicating the copy logic, rename with the identity
	// after substituting children. Simplest correct approach: handle
	// each operator's inputs through algebra.RenameVars is not
	// possible (it doesn't substitute), so rebuild explicitly.
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
