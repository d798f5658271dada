package regioncache

import (
	"slices"

	"mix/internal/algebra"
)

// This file is the semantic half of the region cache (DESIGN.md §14):
// a per-(generation, registry, view) index of parsed canonical plans,
// the one lookup (Subsume) that answers a query from a cached plan that
// subsumes it, and the completeness accessors that make a superset
// region safe to answer from — a partial region must never silently
// truncate a subsumed answer. The superset is read in place, and the
// subset's answer shares its closed subtrees (Tree).

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
// and stale generations are skipped; a fingerprint already present in
// its bucket is not re-added, and a full bucket drops the newcomer
// rather than evicting (the exact-match fast path is unaffected either
// way). Without a remote tier, evicting an
// entry frees its plan's slot (forgetPlan). A slot holds its key's
// strings in the pool until it is freed.
func (c *Cache) IndexPlan(k Key, canon algebra.Op) {
	if c == nil || canon == nil || k.Generation != c.gen.Load() {
		return
	}
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
	k = c.holdKey(k)
	b.name = k.Name
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
		c.releaseKey(p.key)
		return
	}
}

// candidates appends to out the indexed plans that could subsume the
// plan identified by k: same bucket, different fingerprint (the same
// fingerprint is the exact-match fast path, handled before any
// semantic work). The plans are shared.
func (c *Cache) candidates(k Key, out []planEntry) []planEntry {
	b := bucketKey{gen: k.Generation, registry: k.Registry, name: k.Name}
	c.planMu.Lock()
	defer c.planMu.Unlock()
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
// checks containment (algebra.Analyze); finds the candidate's complete
// entry — the local one, else one Remote.Fetch of the candidate's key,
// absorbed here so later subsumed queries stay node-local; retires its
// producer (settle) and hands rebuild its root under its read lock.
// rebuild returns the query's answer as new nodes over the candidate's
// closed subtrees (ok=false: they do not decode under this
// containment), which is grafted into e (adopt).
//
// A candidate counts only when complete — locally via Entry.Complete,
// remotely via Region.Complete — so a partial superset is skipped (and
// never absorbed) wherever it lives. With no remote tier the live local
// entry is the only place a complete superset can be, so completeness
// is checked first and a candidate whose entry is missing or partial is
// skipped before paying for containment; with a remote, only the owner
// knows, so containment comes first and the one Fetch after it. Either
// way the skip counts as incomplete. Subsume reports whether it
// answered the query and keeps the semantic counters of Stats.
func (c *Cache) Subsume(e *Entry, sub algebra.Op, rebuild func(*algebra.Containment, Tree) (Tree, bool)) bool {
	var buf [maxPlansPerBucket]planEntry
	cands := c.candidates(e.key, buf[:0])
	if len(cands) > 0 {
		c.semCandidates.Add(int64(len(cands)))
	}
	local := c.tier() == nil
	for _, cand := range cands {
		le := c.Peek(cand.key)
		if local && (le == nil || !le.Complete()) {
			c.semIncompleteSkips.Add(1)
			continue
		}
		ct, ok := algebra.Analyze(cand.plan, sub)
		if !ok {
			continue
		}
		if le == nil || !le.Complete() {
			if r := c.fetch(cand.key); r.Complete() && c.Absorb(cand.key, r) {
				le = c.Peek(cand.key)
			}
		}
		if le == nil || !le.Complete() {
			c.semIncompleteSkips.Add(1)
			continue
		}
		le.settle()
		le.mu.RLock()
		ans, ok := rebuild(ct, Tree{le.root})
		le.mu.RUnlock()
		if !ok {
			continue
		}
		if e.adopt(ans) {
			e.touch() // derived here: local growth the flusher publishes
		}
		c.semHits.Add(1)
		return true
	}
	c.semMisses.Add(1)
	return false
}

// Tree is a read handle on a closed node of a complete entry, or on a
// node Elem built over such nodes. A closed node is never written again
// (see cnode), so a Tree is read without a lock and may hang in any
// number of entries at once.
type Tree struct{ n *cnode }

// Label returns the node's label.
func (t Tree) Label() string { return t.n.label }

// Len returns the number of the node's children.
func (t Tree) Len() int { return len(t.n.kids) }

// Child returns the node's i-th child.
func (t Tree) Child(i int) Tree { return Tree{t.n.kids[i]} }

// Equal reports whether t and u hold the same labels in the same shape.
func (t Tree) Equal(u Tree) bool {
	return t.n == u.n || t.n.label == u.n.label && slices.EqualFunc(t.n.kids, u.n.kids,
		func(a, b *cnode) bool { return Tree{a}.Equal(Tree{b}) })
}

// Elem returns a new closed node labelled label whose children are
// kids, themselves shared, not copied.
func Elem(label string, kids ...Tree) Tree {
	n := &cnode{label: label, labelKnown: true, complete: true, kids: make([]*cnode, len(kids))}
	for i, k := range kids {
		n.kids[i] = k.n
	}
	n.closed.Store(true)
	return Tree{n}
}

// bytes returns what a copy of n's subtree is charged. A shared subtree
// is charged as if copied, so sizes and eviction order ignore sharing.
func (n *cnode) bytes() int64 {
	b := int64(nodeBytes + len(n.label))
	for _, k := range n.kids {
		b += k.bytes()
	}
	return b
}

// adopt grafts t, the complete answer of e's key, into e and reports
// whether e grew. It holds the producer lock: no resolve runs while
// shared nodes join e, and a complete e never resolves again.
func (e *Entry) adopt(t Tree) (grew bool) {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	e.mu.Lock()
	before := e.bytes
	if grew = !e.root.isClosed(); grew {
		e.graft(e.root, t.n)
	}
	delta := e.bytes - before
	e.mu.Unlock()
	e.account(delta)
	return grew
}

// graft completes dst, e's own node, from src, the same node of the
// same answer, closed: an unknown label is filled in, a child dst
// already has is grafted in turn, and the children past dst's known
// prefix are src's own, shared. Like Merge it never contradicts what e
// knows, and it writes only an unknown label or an incomplete child
// list, never a closed node. Caller holds e.mu for writing.
func (e *Entry) graft(dst, src *cnode) {
	if !dst.labelKnown {
		dst.label, dst.labelKnown = src.label, true
		e.bytes += int64(len(src.label))
	}
	known := min(len(dst.kids), len(src.kids))
	for i, k := range dst.kids[:known] {
		e.graft(k, src.kids[i])
	}
	if !dst.complete {
		for _, k := range src.kids[known:] {
			e.bytes += k.bytes()
		}
		if known == 0 {
			dst.kids = src.kids // complete: nothing appends to it
		} else {
			dst.kids = append(dst.kids, src.kids[known:]...)
		}
		dst.complete = true
	}
}

// prunePlansBelow drops index buckets from generations older than g,
// mirroring dropBelow on entries.
func (c *Cache) prunePlansBelow(g uint64) {
	c.planMu.Lock()
	for b, ps := range c.plans {
		if b.gen < g {
			delete(c.plans, b)
			for _, p := range ps {
				c.releaseKey(p.key)
			}
		}
	}
	c.planMu.Unlock()
}

// pooled is one string of the cache's key-string pool and the number of
// live entries and plan-index slots that hold it.
type pooled struct {
	s    string
	refs int
}

// hold returns the pool's copy of s for one more holder. The first
// holder charges the content bytes to the pool (Stats.InternedBytes),
// once however many entries and slots share the string.
func (c *Cache) hold(s string) string {
	c.poolMu.Lock()
	p, ok := c.pool[s]
	if !ok {
		p.s = s
		c.poolBytes += int64(len(s))
	}
	p.refs++
	c.pool[s] = p
	c.poolMu.Unlock()
	return p.s
}

// release drops one holder of s; the last one returns its bytes, so the
// pool holds the names and fingerprints of what the cache holds, not of
// everything it ever held.
func (c *Cache) release(s string) {
	c.poolMu.Lock()
	if p, ok := c.pool[s]; ok {
		if p.refs--; p.refs > 0 {
			c.pool[s] = p
		} else {
			delete(c.pool, s)
			c.poolBytes -= int64(len(s))
		}
	}
	c.poolMu.Unlock()
}

// holdKey holds a key's strings in the pool for one more entry or plan
// slot.
func (c *Cache) holdKey(k Key) Key {
	k.Name = c.hold(k.Name)
	k.Fingerprint = c.hold(k.Fingerprint)
	return k
}

// releaseKey undoes holdKey.
func (c *Cache) releaseKey(k Key) {
	c.release(k.Name)
	c.release(k.Fingerprint)
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
