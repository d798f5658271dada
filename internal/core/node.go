// Package core implements the paper's primary contribution: the
// evaluation of XMAS algebra plans as trees of *lazy mediators*
// (Section 3, Appendix A).
//
// Each algebra operator is compiled into exactly one lazy mediator: a
// pull-driven cursor (cursor, see pipeline.go) over the operator's output
// list of variable bindings that translates demand on its output into
// the minimal demand on its inputs — and, at the leaves, into DOM-VXD
// navigation commands on the wrapped sources. There is one operator
// pipeline; the paper's operator caches (join inner, recursive
// getDescendants, groupBy's Gprev) are the points where it keeps a
// replay log, and each can be turned off locally. The variable *values*
// inside bindings are equally lazy: a value is a Node handle that
// navigates its underlying source subtree (or constructs element/list
// structure) only when the client actually looks at it.
//
// The top of a compiled plan is exposed as a nav.Document (the virtual
// XML answer document): obtaining the Root handle performs no source
// access at all, and every subsequent client d/r/f navigation is
// answered by advancing the underlying cursors just far enough —
// exactly the navigation-to-navigation translation performed by the
// paper's lazy mediators. The association information the paper encodes
// in Skolem-style node-ids lives in the closure state of the handles.
package core

import (
	"fmt"

	"mix/internal/nav"
	"mix/internal/xmltree"
)

// Node is a lazy handle to one node of a (virtual) XML tree: the value
// level of the paper's node-ids. A Node can report its label and open a
// cursor over its children; sibling order among children is the
// business of the list the Node came from, so Node itself has no Right.
type Node interface {
	// Label returns the node's label (the paper's f command).
	Label() (string, error)
	// Children returns a lazy cursor over the node's children. The
	// call itself must not navigate sources; only pulling the cursor
	// may.
	Children() list
}

// list is a persistent lazy list of Nodes. next returns the head node
// and the remainder; a nil head signals exhaustion. Implementations
// must be persistent: calling next repeatedly on the same list value
// yields the same (observational) result, so multiple consumers can
// hold independent positions — the paper's "client navigation may
// proceed from multiple nodes" requirement.
type list interface {
	next() (Node, list, error)
}

// --- empty and cons ---------------------------------------------------------

type emptyList struct{}

func (emptyList) next() (Node, list, error) { return nil, nil, nil }

type consList struct {
	head Node
	tail list
}

func (c consList) next() (Node, list, error) { return c.head, c.tail, nil }

// singletonList returns a list holding exactly v.
func singletonList(v Node) list { return consList{head: v, tail: emptyList{}} }

// --- deferred lists ---------------------------------------------------------

// thunkList defers list construction until first pull. It is NOT
// memoized: pulling twice recomputes (and re-navigates). Wrap in
// memoList for cached semantics.
type thunkList func() (Node, list, error)

func (t thunkList) next() (Node, list, error) { return t() }

// deferList wraps a list constructor so that construction itself (which
// may navigate) happens on first pull.
func deferList(f func() (list, error)) list {
	return thunkList(func() (Node, list, error) {
		l, err := f()
		if err != nil {
			return nil, nil, err
		}
		return l.next()
	})
}

// memoList caches the result of a single next() call, so repeated
// navigation over the same region does not re-navigate sources.
type memoList struct {
	inner list

	forced bool
	head   Node
	tail   list
	err    error
}

func newMemoList(inner list) *memoList { return &memoList{inner: inner} }

func (m *memoList) next() (Node, list, error) {
	if !m.forced {
		h, t, err := m.inner.next()
		m.head, m.err = h, err
		if t != nil {
			m.tail = newMemoList(t)
		}
		m.forced = true
		m.inner = nil
	}
	return m.head, m.tail, m.err
}

// memoize wraps l so every position is cached after first pull.
func memoize(l list) list {
	if _, ok := l.(*memoList); ok {
		return l
	}
	return newMemoList(l)
}

// concatList yields all of a, then all of b.
type concatList struct{ a, b list }

func (c concatList) next() (Node, list, error) {
	h, t, err := c.a.next()
	if err != nil {
		return nil, nil, err
	}
	if h == nil {
		return c.b.next()
	}
	return h, concatList{a: t, b: c.b}, nil
}

// --- source-backed nodes ----------------------------------------------------

// srcPos is one immutable position in a wrapped source document. The
// same pointer serves as the Node for that source node (its children
// are the source node's children, navigated on demand) and, converted
// to *srcAfter or *srcKids, as the list of its right siblings or of its
// children — pointer conversions allocate nothing, so a source sibling
// step costs exactly one allocation: the next position.
type srcPos struct {
	doc nav.Document
	id  nav.ID
}

func (s *srcPos) Label() (string, error) { return s.doc.Fetch(s.id) }

func (s *srcPos) Children() list { return (*srcKids)(s) }

func (s *srcPos) source() (nav.Document, nav.ID) { return s.doc, s.id }

// srcKids emits the children of a source position: d, then r steps.
type srcKids srcPos

func (s *srcKids) next() (Node, list, error) {
	child, err := s.doc.Down(s.id)
	if err != nil || child == nil {
		return nil, nil, err
	}
	p := &srcPos{doc: s.doc, id: child}
	return p, (*srcAfter)(p), nil
}

// srcAfter emits the right siblings strictly after a source position.
type srcAfter srcPos

func (s *srcAfter) next() (Node, list, error) {
	r, err := s.doc.Right(s.id)
	if err != nil || r == nil {
		return nil, nil, err
	}
	p := &srcPos{doc: s.doc, id: r}
	return p, (*srcAfter)(p), nil
}

// SourceRoot returns the lazy Node for the root of a source document.
// Obtaining it does not navigate; the root handle is resolved on first
// Label/Children demand.
func SourceRoot(doc nav.Document) Node {
	return &lazyNode{resolve: func() (Node, error) {
		root, err := doc.Root()
		if err != nil {
			return nil, err
		}
		if root == nil {
			return nil, fmt.Errorf("core: source document has no root")
		}
		return &srcPos{doc: doc, id: root}, nil
	}}
}

// --- constructed nodes ------------------------------------------------------

// elemNode is a constructed element (createElement, groupBy's list[…],
// the bs/b spine of binding trees): a label plus a lazy child list.
type elemNode struct {
	label string
	kids  list
}

func (e elemNode) Label() (string, error) { return e.label, nil }
func (e elemNode) Children() list         { return e.kids }

// NewElem constructs a lazy element node.
func NewElem(label string, kids list) Node { return elemNode{label: label, kids: kids} }

// leafNode is a constructed atomic node.
type leafNode string

func (l leafNode) Label() (string, error) { return string(l), nil }
func (leafNode) Children() list           { return emptyList{} }

// lazyNode defers resolution of the underlying node until first use —
// this is how the mediator hands out the answer-root handle without
// touching the sources (Section 3: "returns a handle to the root
// element … without even accessing the sources").
type lazyNode struct {
	resolve func() (Node, error)

	forced bool
	n      Node
	err    error
}

func (l *lazyNode) force() (Node, error) {
	if !l.forced {
		l.n, l.err = l.resolve()
		l.forced = true
		l.resolve = nil
		if l.err == nil && l.n == nil {
			l.err = fmt.Errorf("core: lazy node resolved to nothing")
		}
	}
	return l.n, l.err
}

func (l *lazyNode) Label() (string, error) {
	n, err := l.force()
	if err != nil {
		return "", err
	}
	return n.Label()
}

func (l *lazyNode) Children() list {
	return deferList(func() (list, error) {
		n, err := l.force()
		if err != nil {
			return nil, err
		}
		return n.Children(), nil
	})
}

// treeNode adapts a materialized xmltree.Tree to a Node (used for
// literal construction in plans and for tests).
type treeNode struct{ t *xmltree.Tree }

// FromTree wraps a materialized tree as a Node.
func FromTree(t *xmltree.Tree) Node { return treeNode{t: t} }

func (n treeNode) Label() (string, error) { return n.t.Label, nil }

func (n treeNode) Children() list {
	return treeKids{kids: n.t.Children}
}

type treeKids struct{ kids []*xmltree.Tree }

func (k treeKids) next() (Node, list, error) {
	if len(k.kids) == 0 {
		return nil, nil, nil
	}
	return treeNode{t: k.kids[0]}, treeKids{kids: k.kids[1:]}, nil
}

// --- materialization --------------------------------------------------------

// MaterializeNode fully explores the subtree under v, navigating
// whatever sources back it. It is used for condition evaluation and
// operator keys (comparing typically-small values like zip codes), the
// eager baseline, and tests.
//
// A source-backed subtree is walked by nav.Explorer.Shared, which
// issues d/r/f commands directly instead of through the boxed
// Node/list cursors — exactly the command sequence the generic walk
// would: Fetch(n), Down(n), then per child its subtree followed by
// Right(child) — so wrappers (counting, tracing) see an unchanged
// command stream. Where the innermost document holds the subtree
// closed (nav.TreeHolder: any node of an in-memory nav.TreeDoc, a node
// of an LXP buffer whose fragment arrived without a hole) the result is
// that subtree: nothing is copied, and a fingerprint memoized on it
// serves every query of the catalog. Other subtrees (a buffer fragment
// that held a hole, documents outside the wrapper chain) and
// constructed levels are copied into a per-call arena. The result may
// therefore share nodes with a source and must be treated as read-only.
func MaterializeNode(v Node) (*xmltree.Tree, error) {
	var m materializer
	return m.node(v)
}

// materializer is the single-use scratch state of one MaterializeNode
// call: the explorer whose arena holds every copied node, plus a
// shared child-pointer stack for the constructed levels (each nesting
// level uses the segment above its mark, so one slice serves the whole
// recursion).
type materializer struct {
	ex      nav.Explorer
	scratch []*xmltree.Tree
}

func (m *materializer) node(v Node) (*xmltree.Tree, error) {
	if s, ok := v.(*srcPos); ok {
		return m.ex.Shared(s.doc, s.id)
	}
	label, err := v.Label()
	if err != nil {
		return nil, err
	}
	mark := len(m.scratch)
	l := v.Children()
	for {
		c, rest, err := l.next()
		if err != nil {
			return nil, err
		}
		if c == nil {
			break
		}
		ct, err := m.node(c)
		if err != nil {
			return nil, err
		}
		m.scratch = append(m.scratch, ct)
		l = rest
	}
	t := m.ex.Node(label, m.scratch[mark:])
	m.scratch = m.scratch[:mark]
	return t, nil
}

// itemsOf returns the items a value contributes to concatenate/
// createElement: the children for a list[…] value, the value itself
// otherwise (Section 3, concatenate/createElement definitions). The
// label inspection is deferred until first pull.
func itemsOf(v Node) list {
	return thunkList(func() (Node, list, error) {
		label, err := v.Label()
		if err != nil {
			return nil, nil, err
		}
		if label == xmltree.ListLabel {
			return v.Children().next()
		}
		return singletonList(v).next()
	})
}
