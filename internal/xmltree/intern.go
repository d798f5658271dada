package xmltree

import (
	"sync"
	"sync/atomic"
)

// Interner deduplicates label strings. XML documents repeat a small
// vocabulary of element names over an arbitrarily large node count, so
// interning the labels of decoded trees collapses the per-node string
// allocations of a whole catalog to one allocation per *distinct*
// label. LXP clients intern the labels of every tree they decode off the
// wire.
//
// An Interner is safe for concurrent use. It grows with the label
// vocabulary (not the document size) up to MaxInterned strings; a full
// table is emptied before it admits the next, so data values that
// change with the sources cannot grow it for the interner's whole life,
// and names first seen late are interned all the same.
type Interner struct {
	mu   sync.Mutex
	m    map[string]string
	hits atomic.Int64
	miss atomic.Int64
}

// MaxInterned caps an Interner's table. Element names repeat and are
// admitted again soon after the table is emptied. An LXP connection of
// the remote-sources benchmark workload holds 342–508 labels, so the
// cap is reached only by data values that keep changing.
const MaxInterned = 1 << 14

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{m: make(map[string]string)} }

// admitLocked registers s, emptying a full table first. Caller holds
// in.mu.
func (in *Interner) admitLocked(s string) {
	if len(in.m) >= MaxInterned {
		clear(in.m)
	}
	in.m[s] = s
}

// Intern returns the canonical copy of s, registering it on first use.
func (in *Interner) Intern(s string) string {
	if in == nil {
		return s
	}
	in.mu.Lock()
	if c, ok := in.m[s]; ok {
		in.mu.Unlock()
		in.hits.Add(1)
		return c
	}
	in.admitLocked(s)
	in.mu.Unlock()
	in.miss.Add(1)
	return s
}

// InternBytes returns the canonical string equal to b, allocating a new
// string only the first time a given byte content is seen. The common
// case — a label already interned — performs no allocation at all: the
// map lookup keyed by string(b) does not materialize the conversion.
func (in *Interner) InternBytes(b []byte) string {
	if in == nil {
		return string(b)
	}
	in.mu.Lock()
	if c, ok := in.m[string(b)]; ok {
		in.mu.Unlock()
		in.hits.Add(1)
		return c
	}
	s := string(b)
	in.admitLocked(s)
	in.mu.Unlock()
	in.miss.Add(1)
	return s
}

// Len returns the number of distinct strings interned.
func (in *Interner) Len() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.m)
}

// Stats returns how many Intern calls were answered from the pool
// (hits) versus registered a new string (misses).
func (in *Interner) Stats() (hits, misses int64) {
	if in == nil {
		return 0, 0
	}
	return in.hits.Load(), in.miss.Load()
}
