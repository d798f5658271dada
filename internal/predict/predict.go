// Package predict implements the online navigation-pattern model behind
// speculative region prefetch: a first-order successor model over the
// *top-level regions* of virtual answer documents.
//
// A region is one top-level subtree of an answer document, identified by
// its child index under the answer root (the med_home elements of the
// running example, the book elements of allbooks, …). Sessions reveal
// their intent region by region: a deep-drill client engages region 0,
// then 1, then 2; a glance client samples a few labels and leaves. The
// model counts the observed transitions between engaged regions and,
// when one successor dominates, predicts where the client goes next —
// the input the server's speculative drain worker warms ahead of demand.
//
// # Delta space
//
// Transitions are counted in *delta* space — the signed distance
// to−from between consecutively engaged region indices — rather than as
// (from, to) pairs. This is what makes the model plan-relative and lets
// it generalize across sessions and positions: the dominant pattern of
// a sequential drill is the single delta +1 regardless of how deep into
// the answer the session is, so two observed advances anywhere teach
// the model to predict the next advance everywhere. Deltas beyond
// ±maxDelta fold into overflow buckets that dilute confidence without
// ever producing a (meaningless) concrete prediction.
//
// # Keying and lifetime
//
// Tables are keyed exactly like region-cache entries — (generation,
// registry version, view name, canonical plan fingerprint) — so a
// prediction can only ever warm the entry the observing sessions read,
// and an invalidation epoch bump orphans the learned structure along
// with the cached regions (EvictBelow). Tables are bounded (oldest-key
// eviction) and individually decayed (counts halve past a cap), so the
// model can never pin stale structure or grow without bound.
//
// Counting is lock-free: transition counters are atomics, and the table
// map is guarded by an RWMutex taken only to look up or insert a table.
package predict

import (
	"sync"
	"sync/atomic"

	"mix/internal/regioncache"
)

// Key identifies one successor table: it is the region-cache key, so
// model state and cached regions live and die together.
type Key = regioncache.Key

const (
	// maxDelta is the largest region-index step tracked exactly;
	// |delta| > maxDelta folds into an overflow bucket.
	maxDelta = 4
	// numDeltas is the number of exact delta buckets (−maxDelta…+maxDelta).
	numDeltas = 2*maxDelta + 1
	idxUnder  = numDeltas     // delta < −maxDelta
	idxOver   = numDeltas + 1 // delta > +maxDelta
	nBuckets  = numDeltas + 2

	// MinSupport is the least number of observed transitions before a
	// table predicts at all: one observation proves nothing about a
	// pattern, two consecutive advances already do.
	MinSupport = 2

	// decayCap triggers a halving decay of a table's counters, so a
	// long-lived table tracks the *recent* navigation mix instead of
	// averaging over its whole history.
	decayCap = 1 << 12

	// DefaultMaxKeys bounds the number of tables a model retains.
	DefaultMaxKeys = 1024
)

// table is the per-key successor state. Counters are atomics so
// observation never takes a lock; decay (rare) holds decayMu so only
// one goroutine halves at a time. Counts read during a decay are
// approximate, which is fine — the model is a heuristic, and
// mispredictions cost only a bounded speculative drain.
type table struct {
	counts [nBuckets]atomic.Int64
	total  atomic.Int64
	// drills counts engagements that descended below the region's top
	// element; engages counts all engagements. Their ratio (deep)
	// decides whether a predicted region is drained deep (full subtree)
	// or shallow (the subtree's top two levels), and whether a descent
	// into an unexplored region derives all of it first.
	drills  atomic.Int64
	engages atomic.Int64

	decayMu sync.Mutex
}

func bucket(delta int) int {
	switch {
	case delta < -maxDelta:
		return idxUnder
	case delta > maxDelta:
		return idxOver
	default:
		return delta + maxDelta
	}
}

// decay halves every counter once the table's total passes decayCap.
func (t *table) decay() {
	t.decayMu.Lock()
	defer t.decayMu.Unlock()
	if t.total.Load() <= decayCap {
		return // another goroutine already decayed
	}
	var total int64
	for i := range t.counts {
		h := t.counts[i].Load() / 2
		t.counts[i].Store(h)
		total += h
	}
	t.total.Store(total)
	t.drills.Store(t.drills.Load() / 2)
	t.engages.Store(t.engages.Load() / 2)
}

// Model is the bounded collection of per-key successor tables. The zero
// value is not usable; create with NewModel.
type Model struct {
	maxKeys int

	mu    sync.RWMutex
	tabs  map[Key]*table
	order []Key // insertion order, for oldest-first bounding

	observed  atomic.Int64
	predicted atomic.Int64
	evicted   atomic.Int64
}

// NewModel returns an empty model retaining at most maxKeys tables
// (DefaultMaxKeys when <= 0).
func NewModel(maxKeys int) *Model {
	if maxKeys <= 0 {
		maxKeys = DefaultMaxKeys
	}
	return &Model{maxKeys: maxKeys, tabs: map[Key]*table{}}
}

// lookup returns the table for k, creating (and bounding) on demand.
func (m *Model) lookup(k Key, create bool) *table {
	m.mu.RLock()
	t := m.tabs[k]
	m.mu.RUnlock()
	if t != nil || !create {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t = m.tabs[k]; t != nil {
		return t
	}
	if len(m.tabs) >= m.maxKeys {
		// Evict the oldest table: navigation patterns are recency-
		// weighted anyway, and the oldest key is the likeliest to
		// belong to a view nobody navigates any more.
		old := m.order[0]
		m.order = m.order[1:]
		delete(m.tabs, old)
		m.evicted.Add(1)
	}
	t = &table{}
	m.tabs[k] = t
	m.order = append(m.order, k)
	return t
}

// Observe records that a session engaged region `to` after last engaging
// region `from` (use from = −1 for the answer root, i.e. the session's
// first engagement — it lands in the same +1 bucket as a sequential
// advance into region 0, deliberately reinforcing the scan pattern).
func (m *Model) Observe(k Key, from, to int) {
	t := m.lookup(k, true)
	t.counts[bucket(to-from)].Add(1)
	t.engages.Add(1)
	if t.total.Add(1) > decayCap {
		t.decay()
	}
	m.observed.Add(1)
}

// ObserveDrill records that a session descended below the top element of
// its engaged region — the signal that predictions for this key should
// be drained deep (whole subtree) rather than shallow.
func (m *Model) ObserveDrill(k Key) {
	if t := m.lookup(k, false); t != nil {
		t.drills.Add(1)
	}
}

// Predict returns the most likely next region after cur, whether it
// should be drained deep, and the confidence (dominant-bucket share of
// all observed transitions). ok is false when the table has fewer than
// MinSupport observations, when the dominant delta is 0 (the session is
// already there), or when the predicted index would be negative.
// Callers compare conf against their own threshold.
func (m *Model) Predict(k Key, cur int) (next int, deep bool, conf float64, ok bool) {
	t := m.lookup(k, false)
	if t == nil {
		return 0, false, 0, false
	}
	total := t.total.Load()
	if total < MinSupport {
		return 0, false, 0, false
	}
	best, bestDelta := int64(0), 0
	for i := 0; i < numDeltas; i++ {
		d := i - maxDelta
		if d == 0 {
			continue // a self-transition predicts nothing new
		}
		if c := t.counts[i].Load(); c > best {
			best, bestDelta = c, d
		}
	}
	next = cur + bestDelta
	if best == 0 || next < 0 {
		return 0, false, 0, false
	}
	m.predicted.Add(1)
	return next, t.deep(), float64(best) / float64(total), true
}

// Deep reports whether the clients of k drill deep: the table's depth
// bit once it holds MinSupport observations, and true before that — a
// view nobody has navigated yet is presumed deep. Predict's depth bit is
// the same rule.
func (m *Model) Deep(k Key) bool {
	t := m.lookup(k, false)
	return t == nil || t.deep()
}

// deep is the depth bit: at least half the engagements drilled.
func (t *table) deep() bool {
	return t.total.Load() < MinSupport || 2*t.drills.Load() >= t.engages.Load()
}

// EvictBelow drops every table whose generation is below gen — the
// model's share of a BumpRegistry/Invalidate epoch bump.
func (m *Model) EvictBelow(gen uint64) {
	m.mu.Lock()
	kept := m.order[:0]
	for _, k := range m.order {
		if k.Generation < gen {
			delete(m.tabs, k)
			m.evicted.Add(1)
		} else {
			kept = append(kept, k)
		}
	}
	m.order = kept
	m.mu.Unlock()
}

// Stats is a point-in-time snapshot of model size and activity.
type Stats struct {
	Keys        int   `json:"keys"`
	Observed    int64 `json:"observed"`
	Predictions int64 `json:"predictions"`
	Evicted     int64 `json:"evicted"`
}

// Stats returns current totals.
func (m *Model) Stats() Stats {
	m.mu.RLock()
	keys := len(m.tabs)
	m.mu.RUnlock()
	return Stats{
		Keys:        keys,
		Observed:    m.observed.Load(),
		Predictions: m.predicted.Load(),
		Evicted:     m.evicted.Load(),
	}
}
