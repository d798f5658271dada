package regioncache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mix/internal/nav"
	"mix/internal/trace"
)

// nodeBytes approximates the retained size of one cached node beyond its
// label: the struct, the child-slice slot in its parent, map overhead.
const nodeBytes = 48

// keyFixedBytes approximates the fixed retained size of one entry's key
// and bookkeeping beyond its strings: two uint64s, the map bucket slot,
// the Entry struct itself. Name and fingerprint content lives in the
// cache's key-string pool (see holdKey) and is charged once per held
// string to Stats.InternedBytes, so entries neither re-carry nor
// re-count their own copies.
const keyFixedBytes = 96

// Entry is the cached partial tree for one Key (see the package
// comment): labels and child-list prefixes of the explored region of a
// virtual answer document, read under a read lock and only ever
// extended. What it does not know, its one producer derives: a lazy
// answer document, built on the entry's first miss by the session that
// missed (Doc) and driven by every session's misses under the producer
// lock, never under the lock hits take. The producer's node-ids live on
// the nodes it derived, so it continues from wherever any session left
// it, until the entry is complete.
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

	// mut counts the writes that extended the known region from this
	// node's own derivations (the producer, a semantic rebuild), not
	// from merged peer regions; the cluster L2 flusher publishes only
	// entries it moved since the last flush.
	mut atomic.Int64
	// pub is the mut count the flusher last published (or chose to keep
	// local); it dies with the entry, so an evicted key leaves no
	// publication state behind.
	pub atomic.Int64

	mu    sync.RWMutex
	root  *cnode
	bytes int64

	// pmu, the producer lock, guards prod and every cnode's id; it is
	// taken before mu and the cache's locks.
	pmu      sync.Mutex
	prod     nav.Document
	semTried atomic.Bool // see FirstSemantic
}

// cnode is one node of the cached partial tree.
//
// A closed cnode (isClosed) is never written again: storeLabel and
// mergeRegion fill only an unknown label, storeChild and mergeRegion
// extend or complete only an incomplete child list, and so does graft.
// Only ids are written later, by the entry's own producer, which a
// complete entry no longer has (see resolve). So entries may share
// closed subtrees (Cache.Subsume): both are complete, and the lender
// retires its producer first.
type cnode struct {
	label      string
	kids       []*cnode // known prefix of the child list
	labelKnown bool
	complete   bool // kids is the entire child list
	// closed caches a true isClosed verdict: a closed subtree never
	// changes, so once set it never needs re-checking. Atomic because
	// it is set under the entry's read lock.
	closed atomic.Bool
	// id is the producer's node-id, nil on a node a merge or a graft
	// published until resolve replays to it; no node below a nil one
	// has one. Guarded by the entry's pmu.
	id nav.ID
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
	return &Entry{key: k, c: c, root: &cnode{}, bytes: nodeBytes + keyFixedBytes}
}

// Key returns the entry's identity.
func (e *Entry) Key() Key { return e.key }

// Mutations returns the number of region-extending writes this node
// derived so far; a value unchanged since a previous call means no
// local growth since then (a merged peer region does not count, see
// Merge).
func (e *Entry) Mutations() int64 { return e.mut.Load() }

// Published returns the Mutations count last passed to MarkPublished:
// the growth the cluster flusher has already sent to the key's owner,
// or chosen to keep local. A fresh entry reads 0.
func (e *Entry) Published() int64 { return e.pub.Load() }

// MarkPublished records that the entry's region as of Mutations count
// mut needs no further publication.
func (e *Entry) MarkPublished(mut int64) { e.pub.Store(mut) }

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

// storeChild records the outcome of the producer's navigation to child
// i of the node at path: a non-nil id extends the known prefix (only
// when i is exactly the frontier) and stays on the new node, a nil id
// marks the child list complete at length i. Caller holds e.pmu.
func (e *Entry) storeChild(path []int, i int, id nav.ID) {
	e.mu.Lock()
	var delta int64
	n := e.node(path)
	changed := n != nil && !n.complete && i == len(n.kids)
	if changed && id != nil {
		n.kids = append(n.kids, &cnode{id: id})
		delta = nodeBytes
		e.bytes += delta
	} else if changed {
		n.complete = true
	}
	e.mu.Unlock()
	if changed {
		e.touch()
	}
	e.account(delta)
}

// tracer is a producer that routes the spans of the navigations that
// follow to rec (nil: none).
type tracer interface{ Trace(rec *trace.Recorder) }

// derive navigates the producer for d's miss: op (d, r or f) from the
// node at path. It builds the producer from d if the entry has none, and
// lends it d's recorder for the span of the navigation. A failed
// navigation drops the producer with every id it issued, since its lazy
// streams keep the error; the next miss builds a fresh one, which
// replays to the nodes it needs. Caller holds e.pmu.
func (e *Entry) derive(d *Doc, op nav.Op, path []int) (id nav.ID, label string, err error) {
	if e.prod == nil {
		e.prod = d.produce()
	}
	if t, ok := e.prod.(tracer); ok {
		t.Trace(d.rec)
		defer t.Trace(nil)
	}
	base, err := e.resolve(path)
	if err == nil {
		switch op {
		case nav.OpDown:
			id, err = e.prod.Down(base)
		case nav.OpRight:
			id, err = e.prod.Right(base)
		default:
			label, err = e.prod.Fetch(base)
		}
	}
	if err != nil {
		e.retire()
	}
	return id, label, err
}

// settle retires the producer of a complete entry, which no navigation
// can miss again. Open calls it, so an entry's next open lets go of what
// its last miss derived.
func (e *Entry) settle() {
	if e.Complete() {
		e.pmu.Lock()
		if e.prod != nil {
			e.retire()
		}
		e.pmu.Unlock()
	}
}

// retire drops the producer and every id it issued. Caller holds e.pmu.
func (e *Entry) retire() {
	e.prod = nil
	e.mu.RLock()
	forgetIDs(e.root)
	e.mu.RUnlock()
}

// forgetIDs clears the ids in n's subtree, stopping where they end, so
// it never writes a node another entry lent.
func forgetIDs(n *cnode) {
	if n.id == nil {
		return
	}
	n.id = nil
	for _, k := range n.kids {
		forgetIDs(k)
	}
}

// resolve returns the producer's id for the node at path. Most nodes
// carry the id the producer derived them under. The rest were published
// by a merge (a peer's region): resolve replays d/r to them from the
// nearest node to their left or above that carries an id, and leaves an
// id on every node it crosses, so each is replayed at most once per
// entry. A complete entry, which may share nodes, never misses, so it
// never resolves (see cnode). Caller holds e.pmu.
func (e *Entry) resolve(path []int) (nav.ID, error) {
	n := e.root
	if n.closed.Load() {
		return nil, fmt.Errorf("regioncache: resolve of %v in a complete entry", path)
	}
	if n.id == nil {
		root, err := e.prod.Root()
		if err != nil {
			return nil, err
		}
		n.id = root
	}
	for lvl, idx := range path {
		// Kids only grow by append, so the snapshot's nodes stay put.
		e.mu.RLock()
		kids := n.kids
		e.mu.RUnlock()
		j := idx
		for j >= 0 && kids[j].id == nil {
			j--
		}
		for ; j < idx; j++ {
			var next nav.ID
			var err error
			if j < 0 {
				next, err = e.prod.Down(n.id)
			} else {
				next, err = e.prod.Right(kids[j].id)
			}
			if err != nil {
				return nil, err
			}
			if next == nil {
				return nil, fmt.Errorf("regioncache: document diverged from cache at %v (missing registry invalidation?)", path[:lvl+1])
			}
			kids[j+1].id = next
		}
		n = kids[idx]
	}
	return n.id, nil
}

// FirstSemantic reports whether this call is the entry's first, so that
// the caller makes the entry's one semantic attempt (Cache.Subsume).
func (e *Entry) FirstSemantic() bool { return !e.semTried.Swap(true) }
