package nav

import (
	"fmt"

	"mix/internal/xmltree"
)

// This file provides whole-document and partial exploration helpers
// built from the minimal command set NC = {d, r, f}: they are both the
// reference semantics for tests ("the explored part c(t) of a
// navigation", Definition 1) and the client drivers used by the
// experiments.

// Materialize fully explores doc depth-first using only d, r and f and
// returns the resulting tree. It is the observational equivalence
// oracle: two Documents are equivalent iff Materialize agrees. Result
// nodes are arena-allocated; the command sequence is exactly the
// per-node Fetch/Down/…/Right walk it has always been.
func Materialize(doc Document) (*xmltree.Tree, error) {
	root, err := doc.Root()
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("nav: document has no root")
	}
	var m Explorer
	return m.explore(doc, root, 0, true)
}

// Explorer is the scratch state of materializing subtrees through d, r
// and f: an arena for result nodes and one child-collection stack that
// every nesting level shares (a level uses the segment above its
// mark). The zero value is ready for use. An Explorer is not safe for
// concurrent use; the trees it returns outlive it.
type Explorer struct {
	arena   xmltree.Arena
	scratch []*xmltree.Tree
}

const maxDepth = 10_000

// Shared returns the subtree rooted at p, issuing through doc exactly
// the commands Subtree issues — Fetch(p), Down(p), then per child the
// child's walk followed by Right(child) — so counters and traces on
// the wrapper chain see an unchanged stream. It asks the innermost
// document (a TreeHolder) for p's closed tree before it walks: when
// there is one — any node of a TreeDoc, a node of an LXP buffer whose
// fragment arrived without a hole — the result is that tree, shared
// and read-only, with any fingerprint memoized on it, and no node is
// allocated. Any other subtree gets a fresh copy.
func (m *Explorer) Shared(doc Document, p ID) (*xmltree.Tree, error) {
	var t *xmltree.Tree
	if th, ok := innermost(doc).(TreeHolder); ok {
		t = th.ClosedTree(p)
	}
	if t == nil {
		return m.explore(doc, p, 0, true)
	}
	if _, err := m.explore(doc, p, 0, false); err != nil {
		return nil, err
	}
	return t, nil
}

// Node returns a node labelled label over a copy of kids, carved from
// the same arena as the copies: the constructed levels of a value
// whose leaves are source subtrees.
func (m *Explorer) Node(label string, kids []*xmltree.Tree) *xmltree.Tree {
	t := m.arena.NewNode(label)
	t.Children = m.arena.Children(kids)
	return t
}

// explore walks the subtree rooted at p with d, r and f and, when keep
// is set, copies what it reads into the arena; otherwise it only
// issues the commands and returns nil.
func (m *Explorer) explore(doc Document, p ID, depth int, keep bool) (*xmltree.Tree, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("nav: document deeper than %d (cycle in virtual document?)", maxDepth)
	}
	label, err := doc.Fetch(p)
	if err != nil {
		return nil, err
	}
	child, err := doc.Down(p)
	if err != nil {
		return nil, err
	}
	mark := len(m.scratch)
	for child != nil {
		ct, err := m.explore(doc, child, depth+1, keep)
		if err != nil {
			return nil, err
		}
		if keep {
			m.scratch = append(m.scratch, ct)
		}
		child, err = doc.Right(child)
		if err != nil {
			return nil, err
		}
	}
	if !keep {
		return nil, nil
	}
	t := m.Node(label, m.scratch[mark:])
	m.scratch = m.scratch[:mark]
	return t, nil
}

// ExploreFirst explores, depth-first and left-to-right, until it has
// fully explored the first k children of the root (or the whole
// document if it has fewer), and returns the explored part with a
// trailing hole standing for the unexplored siblings. It models the
// paper's Web interaction pattern: "navigate the first few results and
// then stop".
func ExploreFirst(doc Document, k int) (*xmltree.Tree, error) {
	root, err := doc.Root()
	if err != nil {
		return nil, err
	}
	label, err := doc.Fetch(root)
	if err != nil {
		return nil, err
	}
	t := &xmltree.Tree{Label: label}
	child, err := doc.Down(root)
	if err != nil {
		return nil, err
	}
	var m Explorer
	for i := 0; child != nil && i < k; i++ {
		ct, err := m.explore(doc, child, 1, true)
		if err != nil {
			return nil, err
		}
		t.Children = append(t.Children, ct)
		child, err = doc.Right(child)
		if err != nil {
			return nil, err
		}
	}
	if child != nil {
		t.Children = append(t.Children, xmltree.Hole("unexplored"))
	}
	return t, nil
}

// Labels fetches the labels of the first k children of the root by a
// d,(f,r)* scan, the navigation c = d,f,r,f,… of Example 1. It stops
// early when the document runs out of children.
func Labels(doc Document, k int) ([]string, error) {
	root, err := doc.Root()
	if err != nil {
		return nil, err
	}
	p, err := doc.Down(root)
	if err != nil {
		return nil, err
	}
	var out []string
	for p != nil && len(out) < k {
		l, err := doc.Fetch(p)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
		p, err = doc.Right(p)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Path navigates from the root along a sequence of child labels,
// returning the first node reached whose label matches each component
// in turn (a d,select-style descent). It returns nil if the path does
// not exist.
func Path(doc Document, labels ...string) (ID, error) {
	p, err := doc.Root()
	if err != nil {
		return nil, err
	}
	for _, want := range labels {
		p, err = doc.Down(p)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, nil
		}
		p, err = Select(doc, p, LabelIs(want), true)
		if err != nil || p == nil {
			return p, err
		}
	}
	return p, nil
}

// Subtree materializes a fresh copy of the subtree rooted at p.
func Subtree(doc Document, p ID) (*xmltree.Tree, error) {
	var m Explorer
	return m.explore(doc, p, 0, true)
}

// Equivalent reports whether two documents materialize to structurally
// equal trees. It is used pervasively by the lazy≡eager tests.
func Equivalent(a, b Document) (bool, error) {
	ta, err := Materialize(a)
	if err != nil {
		return false, fmt.Errorf("materializing first document: %w", err)
	}
	tb, err := Materialize(b)
	if err != nil {
		return false, fmt.Errorf("materializing second document: %w", err)
	}
	return xmltree.Equal(ta, tb), nil
}
