package regioncache

import (
	"fmt"

	"mix/internal/nav"
	"mix/internal/trace"
)

// Doc is one session's cache-aware nav.Document over a shared Entry,
// installed at the answer boundary: it answers d/r/f from the entry when
// the region is cached (a hit costs zero navigations at the sources) and
// hands a miss to the entry's one producer, which continues from the
// deepest node any session resolved (see Entry). Node-ids are paths from
// the answer root. A Doc is safe for concurrent use.
type Doc struct {
	entry   *Entry
	produce func() nav.Document // builds the producer if the entry has none
	// rec, when non-nil, records a cache:hit or cache:miss span per
	// command and is lent to the producer for the span of each miss, so
	// the source spans it causes nest under this session's client span.
	rec *trace.Recorder
}

// NewDoc returns a session's document over entry; rec (nil: untraced)
// is the session's span recorder.
func NewDoc(entry *Entry, produce func() nav.Document, rec *trace.Recorder) *Doc {
	return &Doc{entry: entry, produce: produce, rec: rec}
}

// Wrap returns the cache-aware document for (name, fingerprint,
// registry), sharing the entry with every other Wrap of the same key in
// the current generation; inner becomes the entry's producer if the
// entry has none. A nil Cache returns inner unchanged, so callers can
// wire the cache unconditionally.
func (c *Cache) Wrap(name, fingerprint string, registry uint64, inner nav.Document) nav.Document {
	if c == nil {
		return inner
	}
	return NewDoc(c.Entry(name, fingerprint, registry), func() nav.Document { return inner }, nil)
}

// rid is the Doc's node-id: the path from the answer root.
type rid struct {
	d    *Doc
	path []int
}

func (d *Doc) id(p nav.ID) (*rid, error) {
	r, ok := p.(*rid)
	if !ok || r == nil || r.d != d {
		return nil, fmt.Errorf("%w: %T", nav.ErrForeignID, p)
	}
	return r, nil
}

func (d *Doc) observe(op nav.Op, hit bool) {
	label := "cache:miss"
	if hit {
		d.entry.c.hits.Add(1)
		label = "cache:hit"
	} else {
		d.entry.c.misses.Add(1)
	}
	if d.rec != nil {
		d.rec.End(d.rec.Begin(label, string(op)))
	}
}

// Root implements nav.Document. Like the lazy engine's own root, it
// performs no navigation at all: the producer's root is resolved on the
// first miss.
func (d *Doc) Root() (nav.ID, error) {
	return &rid{d: d}, nil
}

// Down implements nav.Document.
func (d *Doc) Down(p nav.ID) (nav.ID, error) {
	r, err := d.id(p)
	if err != nil {
		return nil, err
	}
	return d.step(nav.OpDown, r.path, r.path, 0)
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
	return d.step(nav.OpRight, r.path, parent, i+1)
}

// step answers d or r from the node at from, landing on child i of the
// node at parent: from the entry when it knows, else from the producer
// under the entry's producer lock, which a hit never takes.
func (d *Doc) step(op nav.Op, from, parent []int, i int) (nav.ID, error) {
	e := d.entry
	exists, known := e.lookupChild(parent, i)
	if !known {
		e.pmu.Lock()
		defer e.pmu.Unlock()
		// Another session may have derived the child while this one waited.
		if exists, known = e.lookupChild(parent, i); !known {
			next, _, err := e.derive(d, op, from)
			if err != nil {
				return nil, err
			}
			d.observe(op, false)
			e.storeChild(parent, i, next)
			exists = next != nil
		}
	}
	if known {
		d.observe(op, true)
	}
	if !exists {
		return nil, nil
	}
	return &rid{d: d, path: append(append(make([]int, 0, len(parent)+1), parent...), i)}, nil
}

// Fetch implements nav.Document.
func (d *Doc) Fetch(p nav.ID) (string, error) {
	r, err := d.id(p)
	if err != nil {
		return "", err
	}
	e := d.entry
	label, known := e.lookupLabel(r.path)
	if !known {
		e.pmu.Lock()
		defer e.pmu.Unlock()
		if label, known = e.lookupLabel(r.path); !known {
			if _, label, err = e.derive(d, nav.OpFetch, r.path); err != nil {
				return "", err
			}
			d.observe(nav.OpFetch, false)
			e.storeLabel(r.path, label)
		}
	}
	if known {
		d.observe(nav.OpFetch, true)
		e.c.bytesSaved.Add(int64(len(label)))
	}
	return label, nil
}
