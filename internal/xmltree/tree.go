// Package xmltree implements the labeled ordered tree abstraction of XML
// documents used throughout the MIX mediator:
//
//	T = D | D[T*]
//
// A tree is either a leaf carrying an atomic label d ∈ D, or an element
// d[t1,…,tn] with a label and an ordered list of children. Following the
// paper (Section 2), attributes are not modeled; element names, character
// content and atomic values are all drawn from the same string-like
// domain D.
//
// The reserved label "hole" marks unexplored parts of open (partial)
// trees exchanged by the LXP protocol (Section 4); see IsHole.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// HoleLabel is the reserved element name for holes in open trees
// (Definition 3 of the paper). A hole element has exactly one child,
// a leaf carrying the hole identifier.
const HoleLabel = "hole"

// ListLabel is the special label the groupBy operator uses to denote
// lists of grouped values (Section 3).
const ListLabel = "list"

// Tree is a labeled ordered tree. A Tree with no children may be either
// a leaf (atomic datum) or an empty element; the distinction is
// irrelevant in the paper's abstraction and we do not track it.
//
// Trees are immutable by convention: functions in this package never
// mutate their inputs, and sharing subtrees between Trees is allowed
// (the paper's binding lists deliberately share subtrees to preserve
// node identity).
type Tree struct {
	Label    string
	Children []*Tree

	// Memoized structural fingerprint (see fingerprint.go). fpState
	// moves fpUnset → fpBusy → fpSet; fpHi/fpLo are published by the
	// single fpBusy winner and read only after observing fpSet, so the
	// memo is race-free without a lock. The fields piggyback on the
	// immutability convention: fingerprinting a tree that is still
	// being mutated is a caller bug.
	fpState    atomic.Uint32
	fpHi, fpLo uint64
}

// fingerprint memo states.
const (
	fpUnset uint32 = iota
	fpBusy
	fpSet
)

// Leaf returns a new leaf tree carrying the atomic datum d.
func Leaf(d string) *Tree { return &Tree{Label: d} }

// Elem returns a new element labeled d with the given children.
func Elem(d string, children ...*Tree) *Tree {
	return &Tree{Label: d, Children: children}
}

// Text is shorthand for an element wrapping a single text leaf, e.g.
// Text("zip", "91220") == Elem("zip", Leaf("91220")).
func Text(label, content string) *Tree { return Elem(label, Leaf(content)) }

// Hole returns a hole element hole[id] representing an unexplored part
// of an open tree. Chunked servers mint holes in bulk, so both nodes
// and the child list come from a single allocation.
func Hole(id string) *Tree {
	h := &struct {
		elem     Tree
		children [1]*Tree
		leaf     Tree
	}{}
	h.leaf.Label = id
	h.children[0] = &h.leaf
	h.elem.Label = HoleLabel
	h.elem.Children = h.children[:]
	return &h.elem
}

// IsLeaf reports whether t has no children.
func (t *Tree) IsLeaf() bool { return len(t.Children) == 0 }

// IsHole reports whether t is a hole element hole[id].
func (t *Tree) IsHole() bool {
	return t != nil && t.Label == HoleLabel && len(t.Children) == 1 && t.Children[0].IsLeaf()
}

// HoleID returns the identifier of a hole element, or "" if t is not a hole.
func (t *Tree) HoleID() string {
	if !t.IsHole() {
		return ""
	}
	return t.Children[0].Label
}

// IsOpen reports whether t contains any hole (Definition 3: a tree
// containing holes is open, otherwise closed).
func (t *Tree) IsOpen() bool {
	if t == nil {
		return false
	}
	if t.IsHole() {
		return true
	}
	for _, c := range t.Children {
		if c.IsOpen() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of t. Node identity is not preserved; use
// Clone when a caller needs a mutable private copy.
func (t *Tree) Clone() *Tree {
	if t == nil {
		return nil
	}
	c := &Tree{Label: t.Label}
	if len(t.Children) > 0 {
		c.Children = make([]*Tree, len(t.Children))
		for i, ch := range t.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Equal reports whether t and u are structurally equal (same labels and
// the same ordered children, recursively). Node identity only ever
// shortcuts it: the same pointer is equal to itself without a walk,
// which is what a repeated value over a shared source tree compares.
func Equal(t, u *Tree) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil {
		return false
	}
	if t.Label != u.Label || len(t.Children) != len(u.Children) {
		return false
	}
	for i := range t.Children {
		if !Equal(t.Children[i], u.Children[i]) {
			return false
		}
	}
	return true
}

// Size returns the number of nodes in t.
func (t *Tree) Size() int {
	if t == nil {
		return 0
	}
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// Depth returns the height of t: 1 for a leaf.
func (t *Tree) Depth() int {
	if t == nil {
		return 0
	}
	d := 0
	for _, c := range t.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Child returns the i-th child of t, or nil if out of range.
func (t *Tree) Child(i int) *Tree {
	if t == nil || i < 0 || i >= len(t.Children) {
		return nil
	}
	return t.Children[i]
}

// FirstChild returns the first child of t, or nil (the paper's d
// command applied to a materialized tree).
func (t *Tree) FirstChild() *Tree { return t.Child(0) }

// Find returns the first child of t whose label equals name, or nil.
func (t *Tree) Find(name string) *Tree {
	if t == nil {
		return nil
	}
	for _, c := range t.Children {
		if c.Label == name {
			return c
		}
	}
	return nil
}

// FindAll returns all children of t whose label equals name.
func (t *Tree) FindAll(name string) []*Tree {
	if t == nil {
		return nil
	}
	var out []*Tree
	for _, c := range t.Children {
		if c.Label == name {
			out = append(out, c)
		}
	}
	return out
}

// TextContent concatenates, in document order, the labels of all leaf
// descendants of t (for a leaf, its own label).
func (t *Tree) TextContent() string {
	switch {
	case t == nil:
		return ""
	case t.IsLeaf():
		return t.Label
	case len(t.Children) == 1 && t.Children[0].IsLeaf():
		// The Text("zip", "92093") shape: no builder needed.
		return t.Children[0].Label
	}
	var b strings.Builder
	t.appendText(&b)
	return b.String()
}

func (t *Tree) appendText(b *strings.Builder) {
	if t.IsLeaf() {
		b.WriteString(t.Label)
		return
	}
	for _, c := range t.Children {
		c.appendText(b)
	}
}

// Walk calls fn for every node of t in document (preorder) order,
// with the node's depth (root = 0). If fn returns false the subtree
// below that node is skipped.
func (t *Tree) Walk(fn func(n *Tree, depth int) bool) {
	t.walk(fn, 0)
}

func (t *Tree) walk(fn func(n *Tree, depth int) bool, depth int) {
	if t == nil {
		return
	}
	if !fn(t, depth) {
		return
	}
	for _, c := range t.Children {
		c.walk(fn, depth+1)
	}
}

// CountLabel returns the number of nodes in t whose label equals name.
func (t *Tree) CountLabel(name string) int {
	n := 0
	t.Walk(func(nd *Tree, _ int) bool {
		if nd.Label == name {
			n++
		}
		return true
	})
	return n
}

// Holes returns the hole identifiers occurring in t, in document order.
func (t *Tree) Holes() []string {
	var ids []string
	t.Walk(func(n *Tree, _ int) bool {
		if n.IsHole() {
			ids = append(ids, n.HoleID())
			return false
		}
		return true
	})
	return ids
}

// String renders t in the paper's bracket notation, e.g.
// "home[addr[La Jolla],zip[91220]]". Leaves render as their label.
func (t *Tree) String() string {
	if t == nil {
		return "⊥"
	}
	var b strings.Builder
	t.appendString(&b)
	return b.String()
}

func (t *Tree) appendString(b *strings.Builder) {
	b.WriteString(t.Label)
	if t.IsLeaf() {
		return
	}
	b.WriteByte('[')
	for i, c := range t.Children {
		if i > 0 {
			b.WriteByte(',')
		}
		c.appendString(b)
	}
	b.WriteByte(']')
}

// Canonical returns a canonical string for t suitable as a map key,
// quoting labels so that bracket characters inside labels cannot
// collide with structure. Two trees have the same Canonical string iff
// Equal reports them equal.
func (t *Tree) Canonical() string {
	if t == nil {
		return "#nil"
	}
	var b strings.Builder
	t.appendCanonical(&b)
	return b.String()
}

func (t *Tree) appendCanonical(b *strings.Builder) {
	fmt.Fprintf(b, "%q", t.Label)
	b.WriteByte('(')
	for i, c := range t.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		c.appendCanonical(b)
	}
	b.WriteByte(')')
}

// SortChildrenBy returns a copy of t whose children are stably sorted
// by the given key function; grandchildren are shared, not copied.
// It is a helper for tests and the eager orderBy implementation.
func (t *Tree) SortChildrenBy(key func(*Tree) string) *Tree {
	if t == nil {
		return nil
	}
	kids := make([]*Tree, len(t.Children))
	copy(kids, t.Children)
	sort.SliceStable(kids, func(i, j int) bool { return key(kids[i]) < key(kids[j]) })
	return &Tree{Label: t.Label, Children: kids}
}
