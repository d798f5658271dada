package regioncache

import (
	"slices"
	"strings"

	"mix/internal/algebra"
	"mix/internal/xmltree"
)

// This file is the semantic half of the region cache (DESIGN.md §14):
// a per-(generation, registry, view) index of parsed canonical plans,
// the one lookup (Subsume) that answers a query from a cached plan that
// subsumes it, and the completeness accessors that make a superset
// region safe to answer from — a partial region must never silently
// truncate a subsumed answer.

// maxPlansPerBucket bounds the candidate set a semantic lookup scans.
// Buckets group plans sharing (generation, registry, view name); within
// one, each distinct fingerprint appears once. 32 is far above the
// number of overlapping variants of one view a real workload compiles,
// and keeps the per-open containment work O(1)-ish.
const maxPlansPerBucket = 32

// bucketKey groups index entries that could possibly subsume each
// other: same invalidation epoch, same registry version, same view.
type bucketKey struct {
	gen, registry uint64
	name          string
}

// planEntry is one indexed plan: the full region-cache key it was
// compiled under and its canonical (RenameVars normal form) plan.
type planEntry struct {
	key  Key
	plan algebra.Op
}

// IndexPlan records a canonical plan in the semantic index. Nil plans
// (non-canonicalizable — their opaque fingerprints must never be
// compared structurally) and stale generations are skipped; a
// fingerprint already present in its bucket is not re-added, and a full
// bucket drops the newcomer rather than evicting (the exact-match fast
// path is unaffected either way). Without a remote tier, evicting an
// entry frees its plan's slot (forgetPlan).
func (c *Cache) IndexPlan(k Key, canon algebra.Op) {
	if c == nil || canon == nil || k.Generation != c.gen.Load() {
		return
	}
	k.Name = c.internStr(k.Name)
	k.Fingerprint = c.internStr(k.Fingerprint)
	b := bucketKey{gen: k.Generation, registry: k.Registry, name: k.Name}
	c.planMu.Lock()
	defer c.planMu.Unlock()
	ps := c.plans[b]
	for _, p := range ps {
		if p.key.Fingerprint == k.Fingerprint {
			return
		}
	}
	if len(ps) >= maxPlansPerBucket {
		return
	}
	c.plans[b] = append(ps, planEntry{key: k, plan: canon})
}

// forgetPlan removes k's plan from the semantic index. Eviction calls it
// on a cache with no remote tier, where a plan whose entry is gone can
// never again supply a superset (Subsume answers only from live local
// entries) — without it, the first plans of a long-lived generation
// would hold their bucket's slots forever and crowd out later complete
// supersets. Recompiling the plan indexes it again.
func (c *Cache) forgetPlan(k Key) {
	b := bucketKey{gen: k.Generation, registry: k.Registry, name: k.Name}
	c.planMu.Lock()
	defer c.planMu.Unlock()
	ps := c.plans[b]
	for i, p := range ps {
		if p.key.Fingerprint != k.Fingerprint {
			continue
		}
		if len(ps) == 1 {
			delete(c.plans, b)
		} else {
			c.plans[b] = slices.Delete(ps, i, i+1)
		}
		return
	}
}

// candidates returns the indexed plans that could subsume the plan
// identified by k: same bucket, different fingerprint (the same
// fingerprint is the exact-match fast path, handled before any
// semantic work). The slice is freshly allocated; entries are shared.
func (c *Cache) candidates(k Key) []planEntry {
	b := bucketKey{gen: k.Generation, registry: k.Registry, name: k.Name}
	c.planMu.Lock()
	defer c.planMu.Unlock()
	var out []planEntry
	for _, p := range c.plans[b] {
		if p.key.Fingerprint != k.Fingerprint {
			out = append(out, p)
		}
	}
	return out
}

// Subsume is the semantic lookup: it tries to answer the query whose
// canonical plan is sub, and whose entry is e, from a cached plan of the
// same view that subsumes it. For each candidate in the plan index it
// checks containment (algebra.Analyze); obtains the candidate's fully
// explored answer tree — from the local entry, else by one Remote.Fetch
// of the candidate's key, absorbing the region here so later subsumed
// queries stay node-local; and hands both to rebuild, which derives the
// query's own answer (ok=false: the tree does not decode under this
// containment). The first rebuilt answer is merged into e, after which
// e.Complete() holds and every navigation is served from the entry.
//
// A candidate's region counts only when complete — locally via
// Entry.Tree, remotely via Region.Complete — so a partial superset is
// skipped (and never absorbed) wherever it lives. With no remote tier
// the live local entry is the only place a complete superset can be, so
// completeness is checked first and a candidate whose entry is missing
// or partial is skipped before paying for containment; with a remote,
// only the owner knows, so containment comes first and the one Fetch
// after it. Either way the skip counts as incomplete. Subsume reports
// whether it answered the query and keeps the semantic counters of
// Stats.
func (c *Cache) Subsume(e *Entry, sub algebra.Op, rebuild func(*algebra.Containment, *xmltree.Tree) (*xmltree.Tree, bool)) bool {
	cands := c.candidates(e.key)
	if len(cands) > 0 {
		c.semCandidates.Add(int64(len(cands)))
	}
	local := c.tier() == nil
	for _, cand := range cands {
		if local {
			if le := c.Peek(cand.key); le == nil || !le.Complete() {
				c.semIncompleteSkips.Add(1)
				continue
			}
		}
		ct, ok := algebra.Analyze(cand.plan, sub)
		if !ok {
			continue
		}
		super := c.completeTree(cand.key)
		if super == nil {
			c.semIncompleteSkips.Add(1)
			continue
		}
		ans, ok := rebuild(ct, super)
		if !ok {
			continue
		}
		e.MergeTree(ans)
		c.semHits.Add(1)
		return true
	}
	c.semMisses.Add(1)
	return false
}

// completeTree returns the fully explored answer tree under k — the
// local entry's, else the remote tier's (absorbed into the local
// cache) — or nil when neither holds it complete.
func (c *Cache) completeTree(k Key) *xmltree.Tree {
	e := c.Peek(k)
	if e == nil || !e.Complete() {
		if r := c.fetch(k); r.Complete() && c.Absorb(k, r) {
			e = c.Peek(k)
		}
	}
	if e == nil {
		return nil
	}
	t, _ := e.Tree()
	return t
}

// prunePlansBelow drops index buckets from generations older than g,
// mirroring dropBelow on entries.
func (c *Cache) prunePlansBelow(g uint64) {
	c.planMu.Lock()
	for b := range c.plans {
		if b.gen < g {
			delete(c.plans, b)
		}
	}
	c.planMu.Unlock()
}

// internStr deduplicates a key string through the cache's interner,
// charging its content bytes exactly once (on first sight) to the
// intern pool. The pool is never released — it grows with the view
// vocabulary, not the entry count — so its bytes are reported
// separately (Stats.InternedBytes) and excluded from the eviction
// budget.
func (c *Cache) internStr(s string) string {
	c.internMu.Lock()
	before := c.intern.Len()
	out := c.intern.Intern(s)
	if c.intern.Len() > before {
		c.internBytes += int64(len(s))
	}
	c.internMu.Unlock()
	return out
}

// internKey deduplicates a key's strings through the pool. Opaque
// fingerprints are exempt: each is process-unique (a fresh counter per
// non-canonicalizable plan), so interning them would grow the pool with
// every such query instead of with the view vocabulary; they stay
// entry-carried and entry-accounted.
func (c *Cache) internKey(k Key) Key {
	k.Name = c.internStr(k.Name)
	if !strings.HasPrefix(k.Fingerprint, opaquePrefix) {
		k.Fingerprint = c.internStr(k.Fingerprint)
	}
	return k
}

// Complete reports whether the entry's region is fully explored: every
// node's label known and every child list complete, i.e. the root is
// closed. Completeness is monotone (labels only fill in, child lists
// only close), so a true answer is recorded on the root and re-served
// without re-walking the tree.
func (e *Entry) Complete() bool {
	if e.root.closed.Load() {
		return true
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.root.isClosed()
}

// RegionKnown reports whether the region-th top-level subtree of the
// answer is already explored whole: its subtree is closed. A region
// past the end of a complete top-level child list is known too — a walk
// would only rediscover that it does not exist.
func (e *Entry) RegionKnown(region int) bool {
	if e.root.closed.Load() {
		return true
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	top := e.root.kids
	if region >= len(top) {
		return e.root.complete
	}
	return top[region].isClosed()
}

// Tree returns a deep copy of the entry's region as a plain tree, but
// only when the region is fully explored — the semantic cache must
// never filter a truncated superset. ok=false means incomplete.
func (e *Entry) Tree() (*xmltree.Tree, bool) {
	if !e.Complete() {
		return nil, false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return treeOf(e.root), true
}

func treeOf(n *cnode) *xmltree.Tree {
	t := &xmltree.Tree{Label: n.label}
	for _, k := range n.kids {
		t.Children = append(t.Children, treeOf(k))
	}
	return t
}
