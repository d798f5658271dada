package regioncache

import (
	"fmt"
	"strconv"
	"sync"

	"mix/internal/nav"
)

// Doc is the cache-aware nav.Document installed at the answer boundary:
// it answers d/r/f from the shared Entry when the region is cached (a
// hit costs zero navigations on the wrapped document) and falls through
// to the wrapped lazy document on a miss, publishing what it learns.
//
// Node-ids are paths from the answer root. On the miss path the wrapped
// document's own ids are resolved lazily: the Doc replays d/r commands
// from the deepest already-resolved ancestor, so a session that reached
// a frontier purely through cache hits pays the replay cost only when —
// and where — it actually crosses the frontier. Resolved inner ids are
// memoized per Doc (per session), never shared.
//
// A Doc is safe for concurrent use, but the wrapped document is driven
// under the Doc's lock: sessions own their wrapped engine exclusively,
// exactly as without the cache.
type Doc struct {
	entry *Entry
	inner nav.Document

	// Observe, when non-nil, is called for every command answered, with
	// the DOM-VXD op name and whether it was a cache hit. The compiler
	// wires this to the navigation tracer so hits/misses show up in
	// span forests.
	Observe func(op string, hit bool)

	mu  sync.Mutex
	ids map[string]nav.ID // pathKey → resolved inner id
}

// NewDoc wraps inner with the shared entry. A nil entry or nil inner is
// a programming error.
func NewDoc(entry *Entry, inner nav.Document) *Doc {
	return &Doc{entry: entry, inner: inner, ids: map[string]nav.ID{}}
}

// Wrap returns the cache-aware document for (name, fingerprint,
// registry) over inner, sharing the entry with every other Wrap of the
// same key in the current generation. A nil Cache returns inner
// unchanged, so callers can wire the cache unconditionally.
func (c *Cache) Wrap(name, fingerprint string, registry uint64, inner nav.Document) nav.Document {
	if c == nil {
		return inner
	}
	return NewDoc(c.Entry(name, fingerprint, registry), inner)
}

// Unwrap returns the wrapped document (see nav.Wrapper).
func (d *Doc) Unwrap() nav.Document { return d.inner }

// rid is the Doc's node-id: the path from the answer root.
type rid struct {
	d    *Doc
	path []int
}

// pathKey renders a path as "/0/3": one allocation, the string itself.
func pathKey(path []int) string {
	var buf [64]byte
	k := buf[:0]
	for _, i := range path {
		k = append(k, '/')
		k = strconv.AppendInt(k, int64(i), 10)
	}
	return string(k)
}

func (d *Doc) id(p nav.ID) (*rid, error) {
	r, ok := p.(*rid)
	if !ok || r == nil || r.d != d {
		return nil, fmt.Errorf("%w: %T", nav.ErrForeignID, p)
	}
	return r, nil
}

func (d *Doc) observe(op nav.Op, hit bool) {
	if hit {
		d.entry.c.hits.Add(1)
	} else {
		d.entry.c.misses.Add(1)
	}
	if d.Observe != nil {
		d.Observe(string(op), hit)
	}
}

// Root implements nav.Document. Like the lazy engine's own root, it
// performs no navigation at all — the inner root is resolved on first
// miss.
func (d *Doc) Root() (nav.ID, error) {
	return &rid{d: d}, nil
}

// resolve returns the inner document's id for r, replaying d/r commands
// from the deepest resolved ancestor. Caller holds d.mu.
func (d *Doc) resolve(r *rid) (nav.ID, error) {
	pk := pathKey(r.path)
	if id, ok := d.ids[pk]; ok {
		return id, nil
	}
	// Deepest resolved ancestor (the root resolves via inner.Root).
	depth := len(r.path)
	var cur nav.ID
	for ; depth > 0; depth-- {
		if id, ok := d.ids[pathKey(r.path[:depth])]; ok {
			cur = id
			break
		}
	}
	if cur == nil {
		root, err := d.inner.Root()
		if err != nil {
			return nil, err
		}
		if root == nil {
			return nil, fmt.Errorf("regioncache: wrapped document has no root")
		}
		cur = root
		d.ids[""] = cur
	}
	for lvl := depth; lvl < len(r.path); lvl++ {
		idx := r.path[lvl]
		next, err := d.inner.Down(cur)
		if err != nil {
			return nil, err
		}
		for j := 0; j < idx && next != nil; j++ {
			next, err = d.inner.Right(next)
			if err != nil {
				return nil, err
			}
		}
		if next == nil {
			// The cache says this node exists but the session's own
			// engine disagrees: the underlying sources changed without a
			// generation bump.
			return nil, fmt.Errorf("regioncache: document diverged from cache at %s (missing registry invalidation?)", pathKey(r.path[:lvl+1]))
		}
		cur = next
		d.ids[pathKey(r.path[:lvl+1])] = cur
	}
	return cur, nil
}

// childPath allocates the path of child i under path.
func childPath(path []int, i int) []int {
	return append(append(make([]int, 0, len(path)+1), path...), i)
}

// Down implements nav.Document.
func (d *Doc) Down(p nav.ID) (nav.ID, error) {
	r, err := d.id(p)
	if err != nil {
		return nil, err
	}
	if ok, known := d.entry.lookupChild(r.path, 0); known {
		d.observe(nav.OpDown, true)
		if !ok {
			return nil, nil
		}
		return &rid{d: d, path: childPath(r.path, 0)}, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	base, err := d.resolve(r)
	if err != nil {
		return nil, err
	}
	child, err := d.inner.Down(base)
	if err != nil {
		return nil, err
	}
	d.observe(nav.OpDown, false)
	if child == nil {
		d.entry.storeChild(r.path, 0, false)
		return nil, nil
	}
	cp := childPath(r.path, 0)
	d.ids[pathKey(cp)] = child
	d.entry.storeChild(r.path, 0, true)
	return &rid{d: d, path: cp}, nil
}

// Right implements nav.Document.
func (d *Doc) Right(p nav.ID) (nav.ID, error) {
	r, err := d.id(p)
	if err != nil {
		return nil, err
	}
	if len(r.path) == 0 {
		return nil, nil // the answer root has no siblings
	}
	parent, i := r.path[:len(r.path)-1], r.path[len(r.path)-1]
	if ok, known := d.entry.lookupChild(parent, i+1); known {
		d.observe(nav.OpRight, true)
		if !ok {
			return nil, nil
		}
		return &rid{d: d, path: childPath(parent, i+1)}, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	base, err := d.resolve(r)
	if err != nil {
		return nil, err
	}
	sib, err := d.inner.Right(base)
	if err != nil {
		return nil, err
	}
	d.observe(nav.OpRight, false)
	if sib == nil {
		d.entry.storeChild(parent, i+1, false)
		return nil, nil
	}
	sp := childPath(parent, i+1)
	d.ids[pathKey(sp)] = sib
	d.entry.storeChild(parent, i+1, true)
	return &rid{d: d, path: sp}, nil
}

// Fetch implements nav.Document.
func (d *Doc) Fetch(p nav.ID) (string, error) {
	r, err := d.id(p)
	if err != nil {
		return "", err
	}
	if label, ok := d.entry.lookupLabel(r.path); ok {
		d.observe(nav.OpFetch, true)
		d.entry.c.bytesSaved.Add(int64(len(label)))
		return label, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	base, err := d.resolve(r)
	if err != nil {
		return "", err
	}
	label, err := d.inner.Fetch(base)
	if err != nil {
		return "", err
	}
	d.observe(nav.OpFetch, false)
	d.entry.storeLabel(r.path, label)
	return label, nil
}
