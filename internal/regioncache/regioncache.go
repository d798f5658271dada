// Package regioncache implements a cross-session shared cache of
// *explored regions* of virtual answer documents.
//
// The paper's lazy mediators evaluate a view only as far as one client's
// navigation demands, but each client derives its own answer. The region
// cache shares the derivation: the first session to explore a region of
// an answer document publishes what it saw, every later session
// navigating the same region is answered with *zero* source
// navigations, and a session that goes past the region pays only for
// what lies past it. DESIGN.md §8 has the whole design.
//
// # Key scheme
//
// Cached regions are keyed by
//
//	(generation, registry version, view name, canonical plan fingerprint)
//
// plus, within an entry, the node's *path* — the sequence of child
// indices from the answer root. The generation is the cache's
// invalidation epoch (bumped when the mediator's source registry
// changes); the registry version counts source registrations on the
// compiling engine; the fingerprint is the canonical rendering of the
// final algebra plan with variables renamed to a deterministic order, so
// the same query text compiled by different mediator instances (whose
// fresh-variable counters differ) maps to the same entry.
//
// # One producer per entry
//
// An entry stores plain labels and child-count structure — an "open
// tree" like the buffer component's, but without holes: what is known is
// a prefix of each child list plus a completeness bit. A hit copies
// immutable strings out of the entry under its read lock. A miss, from
// any session, drives the entry's one producer — the lazy answer of the
// first query that missed — under a separate lock, from the deepest node
// any session resolved, and publishes the outcome (see Entry). Because
// every entry is pinned to one (generation, registry version) pair,
// whatever publishes into it, the producer or a peer, publishes
// identical answers, so merge races are benign.
//
// # Closed nodes are immutable
//
// A node whose label is known and whose every child list below is
// complete is closed, and no writer touches it again (see cnode). So a
// semantic hit (Cache.Subsume) hangs the superset entry's closed
// subtrees into the subset entry instead of copying them.
//
// # Invalidation, never staleness
//
// Invalidate bumps the generation and drops every older entry. Sessions
// that opened a view before the bump keep their (now unreachable) entry
// and its producer over the sources of the old epoch; sessions opened
// after the bump start a fresh entry. A cache can therefore serve stale
// *sessions*, but never a stale *answer*: a hit always agrees with what
// the producer of its epoch derives.
package regioncache

import (
	"sync"
	"sync/atomic"
)

// Key identifies one cached virtual document region (see the package
// comment for the key scheme).
type Key struct {
	// Generation is the cache invalidation epoch the entry was created
	// in; entries from older generations are never served to new opens.
	Generation uint64
	// Registry is the compiling engine's source-registry version.
	Registry uint64
	// Name names the view(s) the plan was composed from ("" for plain
	// queries).
	Name string
	// Fingerprint is the canonical plan fingerprint (Fingerprint).
	Fingerprint string
}

// Remote is the second cache tier behind this (L1) cache: typically the
// cluster peer that owns a key's region under consistent-hash routing
// (see internal/cluster). Fetch is its only call, made outside any cache
// lock with an exact key — including its generation, so a
// pinned-generation session can never be answered with data from a
// different epoch. It returns whatever the owner has explored, complete
// or not; a nil result is a miss. Open calls it once per locally created
// entry, and the semantic lookup once per subsuming candidate it cannot
// answer locally (see Subsume), which uses the region only when complete.
type Remote interface {
	Fetch(k Key) *Region
}

// Cache is a concurrency-safe, cross-session region cache. The zero
// value is not usable; create with New.
type Cache struct {
	maxBytes int64

	gen atomic.Uint64

	hits       atomic.Int64
	misses     atomic.Int64
	bytesSaved atomic.Int64
	evictions  atomic.Int64

	semHits            atomic.Int64
	semMisses          atomic.Int64
	semCandidates      atomic.Int64
	semIncompleteSkips atomic.Int64

	remoteMu sync.RWMutex
	remote   Remote

	// pool deduplicates key strings (view names, fingerprints) across
	// live entries and plan-index slots; poolBytes is its content
	// size, each string charged once while anything holds it (see
	// hold).
	pool      map[string]pooled
	poolMu    sync.Mutex
	poolBytes int64

	// plans is the semantic plan index (see planindex.go).
	planMu sync.Mutex
	plans  map[bucketKey][]planEntry

	mu      sync.Mutex
	bytes   int64 // retained bytes
	entries map[Key]*Entry
	// recent holds every live entry, most recently opened first, so
	// eviction picks its victim in O(1).
	recent lru
}

// lru is an intrusive recency list of entries (Entry.prev/next), most
// recently opened at the front. Guarded by c.mu; an entry is in the
// list exactly while it is in c.entries.
type lru struct{ front, back *Entry }

func (l *lru) pushFront(e *Entry) {
	e.prev, e.next = nil, l.front
	if l.front != nil {
		l.front.prev = e
	} else {
		l.back = e
	}
	l.front = e
}

func (l *lru) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
}

// New returns an empty cache. maxBytes caps the approximate retained
// size; when exceeded, least-recently-opened entries are evicted whole.
// maxBytes <= 0 means unlimited.
func New(maxBytes int64) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		entries:  map[Key]*Entry{},
		pool:     map[string]pooled{},
		plans:    map[bucketKey][]planEntry{},
	}
}

// Generation returns the current invalidation epoch.
func (c *Cache) Generation() uint64 { return c.gen.Load() }

// SetRemote installs the second cache tier consulted when an entry is
// first created locally (nil — the default — keeps the cache purely
// in-process). Install before serving; Fetch may be called from any
// session goroutine.
func (c *Cache) SetRemote(r Remote) {
	c.remoteMu.Lock()
	c.remote = r
	c.remoteMu.Unlock()
}

// tier returns the installed remote tier (nil: none).
func (c *Cache) tier() Remote {
	c.remoteMu.RLock()
	defer c.remoteMu.RUnlock()
	return c.remote
}

// fetch asks the remote tier for the region under k: nil when no remote
// is installed or the remote misses. Called outside c.mu.
func (c *Cache) fetch(k Key) *Region {
	r := c.tier()
	if r == nil {
		return nil
	}
	return r.Fetch(k)
}

// Invalidate bumps the generation and drops every entry created under an
// older one. Call it whenever the source registry feeding the cached
// views changes (new source data, replaced registration); sessions
// opened afterwards re-derive and re-publish against the new epoch. It
// returns the new generation.
func (c *Cache) Invalidate() uint64 {
	g := c.gen.Add(1)
	c.dropBelow(g)
	return g
}

// AdvanceTo raises the generation to gen — the form of invalidation a
// cluster peer's broadcast carries, so every node lands on the *same*
// epoch and region keys keep lining up across the fleet. It reports
// whether the generation actually advanced; gen at or below the current
// one is a no-op (broadcast echoes converge instead of ping-ponging).
func (c *Cache) AdvanceTo(gen uint64) bool {
	for {
		cur := c.gen.Load()
		if gen <= cur {
			return false
		}
		if c.gen.CompareAndSwap(cur, gen) {
			break
		}
	}
	c.dropBelow(gen)
	return true
}

// dropBelow drops every entry and every plan-index bucket created under
// a generation older than g.
func (c *Cache) dropBelow(g uint64) {
	c.mu.Lock()
	for k, e := range c.entries {
		if k.Generation < g {
			c.dropLocked(e)
		}
	}
	c.mu.Unlock()
	c.prunePlansBelow(g)
}

// Entry opens the entry for (name, fingerprint) under the current
// generation and the given registry version (see Open).
func (c *Cache) Entry(name, fingerprint string, registry uint64) *Entry {
	return c.Open(Key{Generation: c.gen.Load(), Registry: registry, Name: name, Fingerprint: fingerprint})
}

// Open returns the shared entry for k — what cache-aware documents read
// and write — creating it if needed; it is the one way into the cache.
// A key of a stale generation gets a private entry: k.Generation is
// sampled when the engine is built, and an engine built before an
// Invalidate must not publish its stale derivations where fresh engines
// read, so the entry is unaccounted and never shared through the map.
// A created entry, private or not, is filled once from the remote tier
// (the L2 fill), outside c.mu. Its key carries the generation, so a
// peer that has not invalidated yet either holds exactly that epoch's
// region or misses. An existing entry is settled (Entry.settle).
func (c *Cache) Open(k Key) *Entry {
	e, created := c.live(k)
	if e == nil {
		e, created = newEntry(c, k), true
		e.dead.Store(true)
	}
	if created {
		e.Merge(c.fetch(k))
	} else {
		e.settle()
	}
	return e
}

// live returns the mapped entry for k, moved to the front of the
// recency list, or creates it, holds its key's strings in the pool and
// charges its fixed footprint (root node plus key overhead, symmetric
// with dropLocked); created reports which.
// It returns nil for a generation other than the current one, checked
// under c.mu, so a racing Invalidate cannot leave a stale entry in the
// map after dropBelow swept it.
func (c *Cache) live(k Key) (e *Entry, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k.Generation != c.gen.Load() {
		return nil, false
	}
	if e = c.entries[k]; e != nil {
		c.recent.remove(e)
		c.recent.pushFront(e)
		return e, false
	}
	k = c.holdKey(k)
	e = newEntry(c, k)
	c.entries[k] = e
	c.bytes += e.bytes
	c.recent.pushFront(e)
	c.evictOverLocked()
	return e, true
}

// Peek returns the live entry for k, or nil: no creation, no LRU touch,
// no remote fetch. It is how a cluster node answers a peer's region_get
// without ever starting a fetch chain of its own.
func (c *Cache) Peek(k Key) *Entry {
	c.mu.Lock()
	e := c.entries[k]
	c.mu.Unlock()
	return e
}

// Absorb merges a peer-published region into the live entry for k,
// creating the entry if needed — WITHOUT consulting the remote tier
// (the publisher *is* the remote tier; fetching back would loop).
// Regions for any generation other than the current one are dropped:
// the publisher lags an invalidation this node already applied. It
// reports whether the region was merged.
func (c *Cache) Absorb(k Key, r *Region) bool {
	if r == nil || k.Generation != c.gen.Load() {
		return false
	}
	e, _ := c.live(k)
	if e == nil {
		return false
	}
	e.Merge(r)
	return true
}

// ForEach calls f for every live entry (snapshotted, then visited
// outside the cache lock). The cluster L2 flusher uses it to push
// locally explored regions to their owners.
func (c *Cache) ForEach(f func(*Entry)) {
	c.mu.Lock()
	es := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries {
		es = append(es, e)
	}
	c.mu.Unlock()
	for _, e := range es {
		f(e)
	}
}

// dropLocked removes an entry, releasing its bytes and its key's hold
// on the pool. Caller holds c.mu.
func (c *Cache) dropLocked(e *Entry) {
	delete(c.entries, e.key)
	c.releaseKey(e.key)
	c.recent.remove(e)
	e.dead.Store(true)
	e.mu.Lock()
	b := e.bytes
	e.mu.Unlock()
	c.bytes -= b
	c.evictions.Add(1)
}

// addBytes accounts newly retained bytes and evicts entries while over
// budget.
func (c *Cache) addBytes(n int64) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.bytes += n
	c.evictOverLocked()
	c.mu.Unlock()
}

// evictOverLocked evicts least-recently-opened entries while the cache
// is over budget. Each victim is the back of the recency list, so
// eviction costs O(1) per entry dropped. On a cache with no remote tier
// the victim's plan also leaves the semantic index (see forgetPlan).
// Caller holds c.mu; c.mu → c.planMu is the order.
func (c *Cache) evictOverLocked() {
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		e := c.recent.back
		if e == nil {
			return
		}
		c.dropLocked(e)
		if c.tier() == nil {
			c.forgetPlan(e.key)
		}
	}
}

// Stats is a point-in-time snapshot of cache effectiveness. It is also
// the stats op's cache block on the wire (vxdp.CacheStats): hits are
// navigations answered with zero source navigations, bytes_saved the
// label bytes served from the cache.
type Stats struct {
	Generation uint64 `json:"generation"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	Hits       int64  `json:"hits"`        // navigations answered without touching an engine
	Misses     int64  `json:"misses"`      // navigations that drove a lazy engine
	BytesSaved int64  `json:"bytes_saved"` // label bytes served from the cache
	Evictions  int64  `json:"evictions"`   // entries dropped by budget or invalidation

	// Semantic-cache totals (plan containment; see planindex.go):
	// queries answered from a subsuming cached plan's region, queries
	// that found no usable superset, candidate plans examined, and
	// candidates skipped because their region was not fully explored —
	// after containment held, or, on a node with no remote tier, before
	// containment was tried.
	SemanticHits            int64 `json:"semantic_hits"`             // queries answered from a subsuming region
	SemanticMisses          int64 `json:"semantic_misses"`           // lookups with no usable superset
	SemanticCandidates      int64 `json:"semantic_candidates"`       // candidate plans scanned
	SemanticIncompleteSkips int64 `json:"semantic_incomplete_skips"` // candidates not fully explored (see Subsume)

	// InternedBytes is the content size of the key-string pool: each
	// view name and fingerprint a live entry or plan-index slot holds,
	// charged once however many hold it and released with the last.
	// It is excluded from Bytes and the eviction budget.
	InternedBytes int64 `json:"interned_bytes"`
}

// Stats returns current totals.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.Unlock()
	c.poolMu.Lock()
	interned := c.poolBytes
	c.poolMu.Unlock()
	return Stats{
		Generation:              c.gen.Load(),
		Entries:                 entries,
		Bytes:                   bytes,
		Hits:                    c.hits.Load(),
		Misses:                  c.misses.Load(),
		BytesSaved:              c.bytesSaved.Load(),
		Evictions:               c.evictions.Load(),
		SemanticHits:            c.semHits.Load(),
		SemanticMisses:          c.semMisses.Load(),
		SemanticCandidates:      c.semCandidates.Load(),
		SemanticIncompleteSkips: c.semIncompleteSkips.Load(),
		InternedBytes:           interned,
	}
}
