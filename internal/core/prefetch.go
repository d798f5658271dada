package core

import (
	"context"
	"errors"
	"runtime"

	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
)

// This file is the speculative drain worker of the navigation-driven
// prefetch layer (DESIGN.md §15): given a *predicted* next region of a
// query's answer document, PrefetchRegion explores just that region
// through a cache-aware document opened speculatively, so the explored
// structure lands in the shared region cache before any client asks.
// The drain runs on the query the client navigates — the paper's "push
// from below" beside the client's "pull from above" on one mediator —
// so what it derives stays in the query's lazy state for the client's
// own later misses. Drains share a bounded pool of slots (specSlots),
// and each is triple-bounded: a navigation budget, a label-byte budget,
// and a context cancelled the instant real demand arrives — checked
// between every two navigations, so cancellation takes effect within at
// most one pull of the operator pipeline. WalkRegion runs the same
// walker as demand, on the client's own document, when a client first
// descends into a region the cache does not hold (DESIGN.md §15.2).

// specSlots bounds the speculative drains running at once across the
// whole process; a drain waits for a slot or for its cancellation.
var specSlots = make(chan struct{}, max(2, runtime.GOMAXPROCS(0)))

// PrefetchBudget bounds one speculative drain. Zero fields mean
// unbounded (the context still applies).
type PrefetchBudget struct {
	// MaxNavs caps the navigations the drain issues at the speculative
	// answer boundary. Each drives at most one pull of the operator
	// pipeline; a warm region costs none.
	MaxNavs int64
	// MaxBytes caps the label bytes the drain fetches (an upper bound on
	// the cache bytes the drain can publish).
	MaxBytes int64
}

// PrefetchResult reports what one speculative drain did.
type PrefetchResult struct {
	// Navs is the number of navigations the drain issued at the
	// speculative answer boundary.
	Navs int64
	// Bytes is the label bytes fetched.
	Bytes int64
	// SrcNavs is the source navigations the query made while the drain
	// held its navigation lock: the drain's share of the query's source
	// work, which demand navigations of the same query do not pay.
	SrcNavs int64
	// Exhausted reports that a budget ran out before the region was
	// fully explored; whatever was explored is published anyway.
	Exhausted bool
	// Cancelled reports that the context was cancelled mid-drain
	// (demand arrived, or the registry epoch moved).
	Cancelled bool
}

// RegionKey returns the full region-cache key of this query's answer
// document — the identity its cached regions, its cluster routing, and
// its prefetch successor tables all share.
func (q *Query) RegionKey() regioncache.Key {
	return regioncache.Key{
		Generation:  q.eng.cacheGen,
		Registry:    q.regVer,
		Name:        q.cacheName,
		Fingerprint: q.fingerprint,
	}
}

// errBudget distinguishes budget exhaustion from real failures inside
// the drain walk.
var errBudget = errors.New("core: prefetch budget exhausted")

// specWalk carries the per-drain state: the budget-metered document and
// the cancellation context.
type specWalk struct {
	ctx    context.Context
	doc    nav.Document
	nav    *metrics.Counters
	budget PrefetchBudget
	bytes  int64
}

// check gates every navigation: context first (demand pre-empts
// speculation instantly), then the two budgets.
func (w *specWalk) check() error {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	if w.budget.MaxNavs > 0 && w.nav.Navigations() >= w.budget.MaxNavs {
		return errBudget
	}
	if w.budget.MaxBytes > 0 && w.bytes >= w.budget.MaxBytes {
		return errBudget
	}
	return nil
}

func (w *specWalk) fetch(p nav.ID) error {
	if err := w.check(); err != nil {
		return err
	}
	l, err := w.doc.Fetch(p)
	w.bytes += int64(len(l))
	return err
}

// drill explores the subtree under p: its label, then — deep — every
// descendant, or — shallow — only its immediate children's labels (the
// two levels a glancing client looks at).
func (w *specWalk) drill(p nav.ID, deep bool) error {
	if err := w.fetch(p); err != nil {
		return err
	}
	if err := w.check(); err != nil {
		return err
	}
	c, err := w.doc.Down(p)
	if err != nil {
		return err
	}
	for c != nil {
		if deep {
			if err := w.drill(c, true); err != nil {
				return err
			}
		} else if err := w.fetch(c); err != nil {
			return err
		}
		if err := w.check(); err != nil {
			return err
		}
		if c, err = w.doc.Right(c); err != nil {
			return err
		}
	}
	return nil
}

// WalkRegion derives the whole subtree under top on doc, the demand
// document of the query a client navigates, up to budget. It is the
// drain's walker run as demand: on the caller's goroutine, with no
// specSlots slot and no context, so what it derives is traced and
// billed by doc like any other demand navigation. A walk the budget
// stops is not an error; whatever it derived stays derived.
func WalkRegion(doc nav.Document, top nav.ID, budget PrefetchBudget) error {
	local := &metrics.Counters{}
	w := &specWalk{ctx: context.Background(), doc: &nav.CountingDoc{Doc: doc, Counters: local}, nav: local, budget: budget}
	if err := w.drill(top, true); !errors.Is(err, errBudget) {
		return err
	}
	return nil
}

// PrefetchRegion speculatively explores the region-th top-level subtree
// of the query's answer document — deep (the whole subtree) or shallow
// (the subtree's top two levels) — publishing what it sees through the
// normal region-cache path, so the exact-match, L2, and semantic layers
// all serve it to later demand. The entry it publishes into is opened
// speculatively (regioncache.Cache.Open with spec set): separately
// accounted and evicted first under pressure until demand promotes it.
//
// The walk issues navigations into counters (the caller's dedicated
// speculative block — never a session's), one at a time under the
// query's navigation lock, so it may run beside the query's demand
// document; it records no trace spans. It stops at the first of:
// region fully explored, budget exhausted, ctx cancelled. It holds one
// of specSlots; with every slot taken it waits for one or for
// cancellation, whichever comes first.
//
// The query must be cache-named on an engine with a region cache;
// anything else returns an error, as does a navigation failure.
func (q *Query) PrefetchRegion(ctx context.Context, region int, deep bool, budget PrefetchBudget, counters *metrics.Counters) (PrefetchResult, error) {
	if q.eng.cache == nil || q.cacheName == "" {
		return PrefetchResult{}, errors.New("core: prefetch needs a region-cached named query")
	}
	if region < 0 {
		return PrefetchResult{}, errors.New("core: negative prefetch region")
	}
	select {
	case specSlots <- struct{}{}:
		defer func() { <-specSlots }()
	case <-ctx.Done():
		return PrefetchResult{Cancelled: true}, nil
	}

	local := &metrics.Counters{}
	inner := &VDoc{q: q, spec: true}
	w := &specWalk{ctx: ctx, doc: &nav.CountingDoc{Doc: q.document(inner), Counters: local}, nav: local, budget: budget}

	err := func() error {
		root, err := w.doc.Root()
		if err != nil {
			return err
		}
		if err := w.check(); err != nil {
			return err
		}
		cur, err := w.doc.Down(root)
		if err != nil {
			return err
		}
		for i := 0; i < region && cur != nil; i++ {
			if err := w.check(); err != nil {
				return err
			}
			if cur, err = w.doc.Right(cur); err != nil {
				return err
			}
		}
		if cur == nil {
			// The answer has no region-th child. Not a failure: the walk
			// just published the (short) complete top-level child list,
			// which is itself useful structure.
			return nil
		}
		return w.drill(cur, deep)
	}()

	res := PrefetchResult{Navs: local.Navigations(), Bytes: w.bytes, SrcNavs: inner.srcNavs}
	if counters != nil {
		counters.Add(local.Snapshot())
	}
	switch {
	case err == nil:
	case errors.Is(err, errBudget):
		res.Exhausted = true
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
		res.Cancelled = true
	default:
		return res, err
	}
	return res, nil
}
