package core

import (
	"encoding/binary"
	"slices"
	"sync"

	"mix/internal/xmltree"
)

// Fingerprint-backed operator keys.
//
// distinct, groupBy and difference need a map key that is equal exactly
// when the tuples of variable values are structurally equal. A
// canonical-string key would have that property but cost a full
// serialization of every subtree per first use. The key is instead the
// concatenation of the values' 16-byte structural fingerprints —
// constant-size per variable — made *exact* by a keyspace: a per-query
// table that remembers, for each fingerprint key, the distinct value
// tuples that produced it.
// The first tuple owns the bare key; a colliding tuple (equal
// fingerprints, unequal trees — astronomically rare, but the semantics
// must not depend on that) is detected by tuple-wise xmltree.Equal
// against the stored representatives and gets the key extended with its
// slot index, so different tuples never share a key and equal tuples
// always do.
//
// The keyspace is scoped to one compiled query (created per Compile,
// threaded by the compiler), which bounds retention: it can never
// outlive the bindings whose trees it references, and keys from
// different queries — or from the same plan compiled twice — are never
// mixed.

// compiler carries the per-compile state threaded through plan
// compilation: the engine (options, registry, tracer) and the
// query-scoped keyspace. Engine.Compile may be called concurrently, so
// per-compile state lives here rather than on the Engine.
type compiler struct {
	e  *Engine
	ks *keyspace
}

// keyspace disambiguates fingerprint collisions within one query.
type keyspace struct {
	mu   sync.Mutex
	reps map[string][][]*xmltree.Tree // fp key → distinct tuples seen
}

func newKeyspace() *keyspace { return &keyspace{reps: map[string][][]*xmltree.Tree{}} }

// resolve returns the collision slot of the tuple under key: 0 for the
// first tuple observed with this fingerprint key (the overwhelmingly
// common case), i > 0 for the i-th structurally distinct tuple that
// collided with it. Equal tuples always resolve to the same slot. The
// tuple is copied when stored, so callers may pass scratch storage.
func (ks *keyspace) resolve(key string, tuple []*xmltree.Tree) int {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	reps := ks.reps[key]
	for i, rep := range reps {
		if tuplesEqual(rep, tuple) {
			return i
		}
	}
	ks.reps[key] = append(reps, slices.Clone(tuple))
	return len(reps)
}

func tuplesEqual(a, b []*xmltree.Tree) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !xmltree.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Test hooks: fingerprint computations used for operator and hash-join
// keys, swappable so collision-fallback tests can force every value
// into one bucket and assert the Equal-based disambiguation alone
// produces correct answers.
var (
	treeFP = (*xmltree.Tree).Fingerprint
	atomFP = (*xmltree.Tree).AtomFingerprint
)

// fpKey computes the fingerprint-backed operator key for the values of
// vars: the concatenated per-value fingerprints, plus a collision-slot
// suffix when the keyspace has seen a different tuple under the same
// fingerprints. Materialized trees are memoized on the binding links.
// Up to fpKeyVars variables the tuple and key bytes live on the stack.
func (b *binding) fpKey(ks *keyspace, vars []string) (string, error) {
	var tupleBuf [fpKeyVars]*xmltree.Tree
	var rawBuf [fpKeyVars*16 + 1 + binary.MaxVarintLen64]byte
	tuple, raw := tupleBuf[:0], rawBuf[:0]
	for _, v := range vars {
		t, err := b.Value(v)
		if err != nil {
			return "", err
		}
		tuple = append(tuple, t)
		raw = treeFP(t).AppendKey(raw)
	}
	key := string(raw)
	if slot := ks.resolve(key, tuple); slot > 0 {
		raw = append(raw, 0xff)
		raw = binary.AppendUvarint(raw, uint64(slot))
		key = string(raw)
	}
	return key, nil
}

// fpKeyVars is the variable count up to which fpKey needs no heap
// scratch.
const fpKeyVars = 4

// key returns the operator key for the values of vars — the map key
// distinct/groupBy/difference deduplicate on — memoized per binding
// under ck, the joined variable list (precomputed by the operator), so
// the repeated group/member scans of groupBy pay for key construction
// once.
func (b *binding) key(ck string, ks *keyspace, vars []string) (string, error) {
	if k, ok := b.keys.get(ck); ok {
		return k, nil
	}
	k, err := b.fpKey(ks, vars)
	if err != nil {
		return "", err
	}
	b.keys.put(ck, k)
	return k, nil
}
