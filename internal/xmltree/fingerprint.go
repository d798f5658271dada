package xmltree

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Structural fingerprints.
//
// Equality-heavy operators (distinct, groupBy, difference, hash-join
// buckets) traditionally key their sets on Canonical(), which costs a
// full serialization of the subtree — O(size) allocations per key. A
// Fingerprint is a 128-bit structural hash with the property
//
//	Equal(t, u)  ⇒  t.Fingerprint() == u.Fingerprint()
//
// so operators can compare 16-byte values instead of strings; the (vanishing,
// but possible) converse failure — two structurally different trees
// with the same fingerprint — is handled by the callers' collision
// fallback, which re-checks Equal on fingerprint-equal values.
//
// The hash is FNV-1a over a prefix-free encoding of the tree: each
// label is fed length-prefixed, and child lists are bracketed by
// sentinel bytes, so "a"["b"] and "ab" cannot collide byte-wise. The
// value is deterministic within a process *and* across processes (no
// random seed), so fingerprints of copy-on-read region-cache clones, of
// re-materialized binding values, and of trees decoded from the wire
// all agree as long as the trees are structurally equal.
//
// Fingerprints are memoized on the node. Memoization is race-free
// (single-writer CAS; concurrent readers either see the published value
// or recompute the identical one) but assumes the tree is no longer
// mutated — the package-wide immutability convention. Do not fingerprint
// trees that still receive hole fills.

// Fingerprint is a 128-bit structural hash of a Tree.
type Fingerprint struct {
	Hi, Lo uint64
}

// IsZero reports whether f is the zero fingerprint. The hash never
// produces the zero value for a non-nil tree (the offset basis is mixed
// in), so zero doubles as "absent".
func (f Fingerprint) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// Fold continues the FNV-1a hash f over g's 16 bytes, as a node's hash
// continues over its children's fingerprints. Folding the fingerprints
// of a tuple of trees, in order, keys the tuple by one comparable
// value: equal tuples fold equal. It allocates nothing.
func (f Fingerprint) Fold(g Fingerprint) Fingerprint {
	s := fnv128a{hi: f.Hi, lo: f.Lo}
	s.writeUint64(g.Hi)
	s.writeUint64(g.Lo)
	return Fingerprint{Hi: s.hi, Lo: s.lo}
}

func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// FNV-1a 128-bit constants (FNV-0/FNV-1a specification).
const (
	fnvOffsetHi = 0x6c62272e07bb0142
	fnvOffsetLo = 0x62b821756295c58d
	// prime = 2^88 + 2^8 + 0x3b; as two limbs: hi = 1<<24, lo = 0x13b.
	fnvPrimeLo    = 0x13b
	fnvPrimeShift = 24 // prime hi limb = 1 << fnvPrimeShift
)

// fnv128a carries the running 128-bit FNV-1a state.
type fnv128a struct {
	hi, lo uint64
}

func fnvInit() fnv128a { return fnv128a{hi: fnvOffsetHi, lo: fnvOffsetLo} }

// mulPrime multiplies the state by the 128-bit FNV prime mod 2^128:
// s*prime = s*2^88 + s*0x13b.
func (s *fnv128a) mulPrime() {
	// s * 0x13b
	carry, lo := bits.Mul64(s.lo, fnvPrimeLo)
	hi := s.hi*fnvPrimeLo + carry
	// + s * 2^88  (only the low 40 bits of s.lo survive the shift)
	hi += s.lo << fnvPrimeShift
	s.hi, s.lo = hi, lo
}

func (s *fnv128a) writeByte(b byte) {
	s.lo ^= uint64(b)
	s.mulPrime()
}

func (s *fnv128a) writeString(str string) {
	for i := 0; i < len(str); i++ {
		s.writeByte(str[i])
	}
}

func (s *fnv128a) writeUint64(v uint64) {
	for i := 0; i < 8; i++ {
		s.writeByte(byte(v >> (8 * i)))
	}
}

// Structure sentinels fed around labels and child lists. Labels are
// length-prefixed, so no label content can imitate them.
const (
	fpTagNode  = 0x01
	fpTagOpen  = 0x02
	fpTagClose = 0x03
)

// Fingerprint counters, exposed on the daemon's /metrics as mix_fp_*.
var (
	fpComputed atomic.Int64 // fingerprints computed from node content
	fpHits     atomic.Int64 // fingerprints answered from the node memo
)

// FingerprintStats reports how many fingerprints were computed fresh
// versus served from node memos since process start.
func FingerprintStats() (computed, hits int64) {
	return fpComputed.Load(), fpHits.Load()
}

// Fingerprint returns the node's structural fingerprint, computing and
// memoizing it (and every descendant's) on first use. The value is
// compositional — a node hashes its length-prefixed label plus the
// fingerprints of its children — so it is identical whether or not any
// subtree was fingerprinted before, and shared subtrees (region-cache
// clones, reused source fragments) are hashed once per content, not
// once per referencing tree. The computation allocates nothing.
func (t *Tree) Fingerprint() Fingerprint {
	if t == nil {
		return Fingerprint{}
	}
	if t.fpState.Load() == fpSet {
		fpHits.Add(1)
		return Fingerprint{Hi: t.fpHi, Lo: t.fpLo}
	}
	s := fnvInit()
	s.writeByte(fpTagNode)
	s.writeUint64(uint64(len(t.Label)))
	s.writeString(t.Label)
	s.writeByte(fpTagOpen)
	for _, c := range t.Children {
		cf := c.Fingerprint()
		s.writeUint64(cf.Hi)
		s.writeUint64(cf.Lo)
	}
	s.writeByte(fpTagClose)
	fp := Fingerprint{Hi: s.hi, Lo: s.lo}
	fpComputed.Add(1)
	// Single-writer publication: losers of the race simply skip the
	// memo — they computed the identical value anyway.
	if t.fpState.CompareAndSwap(fpUnset, fpBusy) {
		t.fpHi, t.fpLo = fp.Hi, fp.Lo
		t.fpState.Store(fpSet)
	}
	return fp
}

// AtomFingerprint hashes the node's *atomic form* — the leaf label, or
// for an element the concatenated text content, exactly the reduction
// Cmp equality and hash-join bucket keys apply to mixed element/leaf
// comparisons. Two trees whose atoms are string-equal always share an
// AtomFingerprint even when their structures differ (zip[92093] vs the
// leaf 92093), which is what makes it a sound hash-join bucket key: the
// fingerprint is a necessary condition for atom equality. The walk is
// allocation-free and not memoized (atoms are typically tiny).
func (t *Tree) AtomFingerprint() Fingerprint {
	s := fnvInit()
	if t != nil {
		t.atomInto(&s)
	}
	return Fingerprint{Hi: s.hi, Lo: s.lo}
}

func (t *Tree) atomInto(s *fnv128a) {
	if t.IsLeaf() {
		s.writeString(t.Label)
		return
	}
	for _, c := range t.Children {
		c.atomInto(s)
	}
}
