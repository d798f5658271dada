package regioncache

import (
	"strings"
	"sync"
	"sync/atomic"

	"mix/internal/xmltree"
)

// nodeBytes approximates the retained size of one cached node beyond its
// label: the struct, the child-slice slot in its parent, map overhead.
const nodeBytes = 48

// keyFixedBytes approximates the fixed retained size of one entry's key
// and bookkeeping beyond its strings: two uint64s, the map bucket slot,
// the Entry struct itself.
const keyFixedBytes = 96

// keyOverhead is the fixed retained size of an entry's key. Name and
// canonical-fingerprint content is interned through the cache's pool
// (see internKey) and charged once per distinct string to
// Stats.InternedBytes, so entries no longer re-carry — or re-count —
// their own copies. The one exception is an opaque fingerprint
// (Canonical's fallback): process-unique, never interned, so its bytes
// still ride on the entry that owns it.
func keyOverhead(k Key) int64 {
	o := int64(keyFixedBytes)
	if strings.HasPrefix(k.Fingerprint, opaquePrefix) {
		o += int64(len(k.Fingerprint))
	}
	return o
}

// Entry is the cached partial tree for one Key: labels and child-list
// prefixes of the explored region of a virtual answer document. An entry
// has no holes — what is known is a *prefix* of each child list plus a
// completeness bit, which is exactly what left-to-right DOM-VXD
// navigation discovers.
//
// All reads copy immutable values out under a read lock (copy-on-read);
// writers only ever extend the known region, and because an entry is
// pinned to one (generation, registry version), concurrent writers can
// only publish identical data — merge races are benign.
type Entry struct {
	key Key
	c   *Cache

	// prev and next link the entry into the cache's recency list (see
	// lru); guarded by c.mu. Coarse LRU: moved per open, not per
	// navigation.
	prev, next *Entry
	// dead marks an entry evicted from the cache map; sessions holding
	// it keep reading/writing (they stay self-consistent) but its bytes
	// no longer count against the budget.
	dead atomic.Bool

	// mut counts mutations that extended the known region; the cluster
	// L2 flusher uses it to skip entries unchanged since the last flush.
	mut atomic.Int64

	mu    sync.RWMutex
	root  *cnode
	bytes int64
}

// cnode is one node of the cached partial tree.
type cnode struct {
	label      string
	kids       []*cnode // known prefix of the child list
	labelKnown bool
	complete   bool // kids is the entire child list
	// closed caches a true isClosed verdict: a closed subtree never
	// changes, so once set it never needs re-checking. Atomic because
	// it is set under the entry's read lock.
	closed atomic.Bool
}

// isClosed reports whether n's whole subtree is explored: its label is
// known and every child list under it is complete. The verdict is
// recorded on each node the first time it holds. Caller holds e.mu
// (read or write).
func (n *cnode) isClosed() bool {
	if n.closed.Load() {
		return true
	}
	if !n.labelKnown || !n.complete {
		return false
	}
	for _, k := range n.kids {
		if !k.isClosed() {
			return false
		}
	}
	n.closed.Store(true)
	return true
}

func newEntry(c *Cache, k Key) *Entry {
	return &Entry{key: k, c: c, root: &cnode{}, bytes: nodeBytes + keyOverhead(k)}
}

// Key returns the entry's identity.
func (e *Entry) Key() Key { return e.key }

// Mutations returns the number of region-extending writes so far; a
// value unchanged since a previous call means the explored region is
// unchanged too.
func (e *Entry) Mutations() int64 { return e.mut.Load() }

// touch records one region-extending write.
func (e *Entry) touch() { e.mut.Add(1) }

// node walks the cached tree to path; nil if any step is unknown.
// Caller holds e.mu (read or write).
func (e *Entry) node(path []int) *cnode {
	n := e.root
	for _, i := range path {
		if i < 0 || i >= len(n.kids) {
			return nil
		}
		n = n.kids[i]
	}
	return n
}

// account publishes a byte delta to the owning cache (unless evicted).
// Caller must NOT hold e.mu.
func (e *Entry) account(delta int64) {
	if delta == 0 || e.dead.Load() {
		return
	}
	e.c.addBytes(delta)
}

// lookupLabel returns the cached label of the node at path.
func (e *Entry) lookupLabel(path []int) (string, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := e.node(path)
	if n == nil || !n.labelKnown {
		return "", false
	}
	return n.label, true
}

// storeLabel records the label of the node at path.
func (e *Entry) storeLabel(path []int, label string) {
	e.mu.Lock()
	var delta int64
	changed := false
	if n := e.node(path); n != nil && !n.labelKnown {
		n.label, n.labelKnown = label, true
		delta = int64(len(label))
		e.bytes += delta
		changed = true
	}
	e.mu.Unlock()
	if changed {
		e.touch()
	}
	e.account(delta)
}

// lookupChild reports whether the node at path has a child at index i:
// known=false means the cache cannot answer; otherwise ok reports
// existence. i==0 answers d, i==n+1 answers r from child n.
func (e *Entry) lookupChild(path []int, i int) (ok, known bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := e.node(path)
	if n == nil {
		return false, false
	}
	if i < len(n.kids) {
		return true, true
	}
	if n.complete {
		return false, true
	}
	return false, false
}

// storeChild records the outcome of navigating to child i of the node
// at path: exists extends the known prefix (only when i is exactly the
// frontier), !exists marks the child list complete at length i.
func (e *Entry) storeChild(path []int, i int, exists bool) {
	e.mu.Lock()
	var delta int64
	changed := false
	if n := e.node(path); n != nil && !n.complete {
		if exists && i == len(n.kids) {
			n.kids = append(n.kids, &cnode{})
			delta = nodeBytes
			e.bytes += delta
			changed = true
		} else if !exists && i == len(n.kids) {
			n.complete = true
			changed = true
		}
	}
	e.mu.Unlock()
	if changed {
		e.touch()
	}
	e.account(delta)
}

// MergeTree publishes a materialized fragment rooted at the entry's
// root into the cache. Hole children (xmltree.IsHole) and everything to
// their right are skipped — only the index-stable prefix of each child
// list is merged, and a child list with no hole is marked complete.
// Holes stand for zero or more unexplored siblings, as in the buffer
// component's open trees.
func (e *Entry) MergeTree(t *xmltree.Tree) {
	if t == nil || t.IsHole() {
		return
	}
	e.mu.Lock()
	before := e.bytes
	e.merge(e.root, t)
	delta := e.bytes - before
	e.mu.Unlock()
	e.touch()
	e.account(delta)
}

// merge folds t into n. Caller holds e.mu for writing.
func (e *Entry) merge(n *cnode, t *xmltree.Tree) {
	if !n.labelKnown {
		n.label, n.labelKnown = t.Label, true
		e.bytes += int64(len(t.Label))
	}
	stable := len(t.Children)
	for i, c := range t.Children {
		if c.IsHole() {
			stable = i
			break
		}
	}
	for i := 0; i < stable; i++ {
		if i == len(n.kids) {
			n.kids = append(n.kids, &cnode{})
			e.bytes += nodeBytes
		}
		e.merge(n.kids[i], t.Children[i])
	}
	if stable == len(t.Children) && !n.complete {
		n.complete = true
	}
}
