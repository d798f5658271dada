package core

import (
	"maps"
	"slices"

	"mix/internal/xmltree"
)

// Fingerprint operator keys.
//
// distinct, groupBy, difference and the hash join file bindings by the
// values of some variables. The key of a binding over vars is its
// values' 128-bit fingerprints: a one-variable key is the value's
// Fingerprint, memoized on the tree (over an in-memory source, on the
// source node), and a key over several variables folds each
// fingerprint, in order, into one. It is a comparable value, used
// directly as a map key: no key string is built and nothing is kept on
// the binding, so a binding of an engine-wide shared input is keyed by
// the queries of every session alike.
//
// Equal values have equal keys, but equal keys may hold unequal values
// (a collision: astronomically rare, but the semantics must not depend
// on that). So where two keys meet, the values are compared as well
// (sameValues): keySet holds a colliding tuple apart, and a group's
// member scan takes a binding only if its values are Equal to the group
// head's. Over an in-memory source a repeated value is the same source
// node, which Equal accepts at once. The hash join needs no comparison:
// it re-checks its full condition on every probed pair.

// Test hooks: fingerprint computations used for operator and hash-join
// keys, swappable so collision-fallback tests can force every value
// into one bucket and assert the Equal-based disambiguation alone
// produces correct answers.
var (
	treeFP = (*xmltree.Tree).Fingerprint
	atomFP = (*xmltree.Tree).AtomFingerprint
)

// key returns the operator key of b over vars: its values' structural
// fingerprints.
func (b *binding) key(vars []string) (xmltree.Fingerprint, error) {
	return b.keyBy(treeFP, vars)
}

// keyBy folds fp of each value of vars, in order, into one key.
func (b *binding) keyBy(fp func(*xmltree.Tree) xmltree.Fingerprint, vars []string) (xmltree.Fingerprint, error) {
	var k xmltree.Fingerprint
	for i, v := range vars {
		t, err := b.Value(v)
		if err != nil {
			return xmltree.Fingerprint{}, err
		}
		if f := fp(t); i == 0 {
			k = f
		} else {
			k = k.Fold(f)
		}
	}
	return k, nil
}

// sameValues reports whether a and b bind structurally equal values to
// every variable of vars.
func sameValues(a, b *binding, vars []string) (bool, error) {
	if a == b {
		return true, nil
	}
	for _, v := range vars {
		x, err := a.Value(v)
		if err != nil {
			return false, err
		}
		y, err := b.Value(v)
		if err != nil {
			return false, err
		}
		if !xmltree.Equal(x, y) {
			return false, nil
		}
	}
	return true, nil
}

// keySet holds bindings with distinct values of vars: the seen groups
// of groupBy, the survivors of distinct, the right side of difference.
// The first binding held under a key is in first; a binding whose
// values collide with it under the same key goes to more.
type keySet struct {
	vars  []string
	first map[xmltree.Fingerprint]*binding
	more  map[xmltree.Fingerprint][]*binding
}

func newKeySet(vars []string) *keySet {
	return &keySet{vars: vars, first: map[xmltree.Fingerprint]*binding{}}
}

// find returns the held binding with b's values (nil if none) and b's
// key.
func (s *keySet) find(b *binding) (*binding, xmltree.Fingerprint, error) {
	k, err := b.key(s.vars)
	if err != nil {
		return nil, k, err
	}
	h, ok := s.first[k]
	for i := 0; ok; i++ {
		if same, err := sameValues(h, b, s.vars); same || err != nil {
			return h, k, err
		}
		if ok = i < len(s.more[k]); ok {
			h = s.more[k][i]
		}
	}
	return nil, k, nil
}

// add holds b unless a binding with its values is held, reporting
// whether it did, and b's key.
func (s *keySet) add(b *binding) (bool, xmltree.Fingerprint, error) {
	h, k, err := s.find(b)
	if h != nil || err != nil {
		return false, k, err
	}
	if _, ok := s.first[k]; !ok {
		s.first[k] = b
		return true, k, nil
	}
	if s.more == nil {
		s.more = map[xmltree.Fingerprint][]*binding{}
	}
	s.more[k] = append(s.more[k], b)
	return true, k, nil
}

// clone returns a copy that grows apart from s: a fork's seen set.
func (s *keySet) clone() *keySet {
	c := &keySet{vars: s.vars, first: maps.Clone(s.first), more: maps.Clone(s.more)}
	for k, l := range c.more {
		c.more[k] = slices.Clip(l)
	}
	return c
}
