package core

import (
	"fmt"

	"mix/internal/xmltree"
)

// binding is one element of a binding list bs[b[…]]: an immutable
// assignment of lazy values to variable names, represented as a
// persistent chain of links. The chain representation is what makes
// the paper's per-binding caches effective: a nested-loops join that
// pairs one outer binding with many inner bindings shares the outer
// links (and their memoized materializations) across all pairs, so a
// join attribute like a zip code is navigated once per *input* binding,
// not once per pair ("the nested-loops join operator stores … the
// attributes that participate in the join condition", Section 3).
//
// Bindings are not safe for concurrent use; a query's virtual document
// is navigated by one client at a time, as in the paper's architecture.
type binding struct {
	kind   bindKind
	parent *binding

	// bindLink: the lazy value bound to op.to and its memoized
	// materialization, shared by every binding derived from the link.
	val  Node
	tree *xmltree.Tree

	// mergeLink: the right-hand binding.
	co *binding

	// bindLink, projectLink, renameLink: the operator's constant, shared
	// by every link the operator creates.
	op *linkOp

	// keys memoizes key() results on the binding a stream element
	// hands out, so the repeated group/member scans of groupBy
	// (Appendix A's nextgb/next) pay for key construction once per
	// binding rather than once per scan. Allocated on first use: most
	// links are never keyed.
	keys *keyMemo
}

type bindKind uint8

const (
	rootLink bindKind = iota
	bindLink
	mergeLink
	projectLink
	renameLink
)

// linkOp is the compile-time constant of a bind (to), project (keep)
// or rename (from → to) operator. Holding it by pointer keeps every
// link free of fields only some kinds need.
type linkOp struct {
	keep     []string
	from, to string
}

// keyMemo memoizes operator keys by their joined variable list ck, one
// slot per list (a binding is almost always keyed under one).
type keyMemo struct {
	ck, key string
	more    *keyMemo
}

func (m *keyMemo) get(ck string) (string, bool) {
	for ; m != nil; m = m.more {
		if m.ck == ck {
			return m.key, true
		}
	}
	return "", false
}

var emptyBinding = &binding{kind: rootLink}

func newBinding() *binding { return emptyBinding }

// with returns b extended with v bound to op.to (the paper's bᵢ + X[v]).
func (b *binding) with(op *linkOp, v Node) *binding {
	return &binding{kind: bindLink, parent: b, val: v, op: op}
}

// project restricts b to the variables op keeps.
func (b *binding) project(op *linkOp) *binding {
	return &binding{kind: projectLink, parent: b, op: op}
}

// rename renames variable op.from to op.to (op.from != op.to).
func (b *binding) rename(op *linkOp) *binding {
	return &binding{kind: renameLink, parent: b, op: op}
}

// merge concatenates two bindings with disjoint variables.
func merge(l, r *binding) *binding {
	return &binding{kind: mergeLink, parent: l, co: r}
}

// lookup returns the bind link defining name, or nil.
func (b *binding) lookup(name string) *binding {
	for cur := b; cur != nil; {
		switch cur.kind {
		case bindLink:
			if cur.op.to == name {
				return cur
			}
			cur = cur.parent
		case mergeLink:
			if l := cur.parent.lookup(name); l != nil {
				return l
			}
			cur = cur.co
		case projectLink:
			if !containsVar(cur.op.keep, name) {
				return nil
			}
			cur = cur.parent
		case renameLink:
			if name == cur.op.from {
				return nil // hidden by the rename
			}
			if name == cur.op.to {
				name = cur.op.from
			}
			cur = cur.parent
		default: // rootLink
			return nil
		}
	}
	return nil
}

func containsVar(vars []string, v string) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// node returns the lazy value bound to name.
func (b *binding) node(name string) (Node, error) {
	l := b.lookup(name)
	if l == nil {
		return nil, fmt.Errorf("core: unbound variable $%s", name)
	}
	return l.val, nil
}

// Value materializes the value bound to name (algebra.ValueGetter).
// The materialization is memoized on the defining link, so it is
// shared by every binding derived from it. Over an in-memory source it
// is the source's own subtree (MaterializeNode), so it is read-only.
func (b *binding) Value(name string) (*xmltree.Tree, error) {
	l := b.lookup(name)
	if l == nil {
		return nil, fmt.Errorf("core: unbound variable $%s", name)
	}
	if l.tree == nil {
		t, err := MaterializeNode(l.val)
		if err != nil {
			return nil, err
		}
		l.tree = t
	}
	return l.tree, nil
}
