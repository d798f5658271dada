// Package nav defines DOM-VXD, the navigational interface of the MIX
// mediator (Section 2 of the paper): a minimal abstraction of the DOM
// API under which XML documents — materialized, virtual, or buffered —
// are explored with the commands
//
//	d (down)  — first child
//	r (right) — right sibling
//	f (fetch) — label of the node
//
// plus the optional select(σ) command that advances to the first
// following sibling whose label satisfies a predicate. The set NC =
// {d, r, f} is sufficient to completely explore arbitrary virtual
// documents; select(σ) changes the navigational complexity of some
// views (it makes the selection view of Example 1 bounded browsable).
//
// A Document is anything navigable this way. Node identifiers are
// opaque ID values chosen by the Document implementation; lazy
// mediators encode their association information (Appendix A) directly
// into these Skolem-style IDs.
package nav

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mix/internal/xmltree"
)

// ID identifies a node of a Document. IDs are opaque to clients; only
// the Document that issued an ID can interpret it. A nil ID is ⊥ (the
// null pointer of the paper).
type ID any

// Predicate is a sibling-selection condition σ on labels, used by the
// optional select(σ) navigation command.
type Predicate func(label string) bool

// Document is the DOM-VXD navigational interface. Implementations
// must treat IDs as stable: issuing the same command on the same ID
// must return an equivalent result (IDs need not be canonical — two
// different ID values may denote the same node).
//
// All methods return an error only for foreign or malformed IDs and
// for source/transport failures; absence of a child or sibling is
// reported with a nil ID and a nil error.
type Document interface {
	// Root returns the ID of the document's root element.
	Root() (ID, error)
	// Down returns the first child of p, or nil if p is a leaf.
	Down(p ID) (ID, error)
	// Right returns the right sibling of p, or nil if there is none.
	Right(p ID) (ID, error)
	// Fetch returns the label of p.
	Fetch(p ID) (string, error)
}

// Selector is implemented by Documents that support the select(σ)
// command natively. For Documents that do not, Select falls back to a
// right/fetch scan (see the Select helper), which is observationally
// identical but has different navigational complexity.
type Selector interface {
	// SelectRight returns the first sibling at or to the right of p
	// whose label satisfies σ, or nil if no such sibling exists.
	// Note: per the paper this starts at the sibling *after* p when
	// fromSelf is false, and at p itself when fromSelf is true.
	SelectRight(p ID, sigma Predicate, fromSelf bool) (ID, error)
}

// Wrapper is implemented by Documents that wrap another Document to
// observe or augment it (counting, tracing, …); Unwrap returns the
// wrapped document. A wrapper passes IDs and labels through unchanged:
// an ID it hands out is the wrapped document's ID, and a label is the
// wrapped document's label. Capability probes (SelectorOf, and the
// TreeHolder probe of Explorer.Shared) rely on that to ask the
// innermost document, so wrapping never changes the navigation command
// set NC — only the innermost document does.
type Wrapper interface {
	Unwrap() Document
}

// innermost follows doc's wrapper chain to the document it ends in.
func innermost(doc Document) Document {
	for {
		w, ok := doc.(Wrapper)
		if !ok {
			return doc
		}
		doc = w.Unwrap()
	}
}

// SelectorOf is the one capability probe for the select(σ) command: it
// reports whether doc answers select(σ) as a single native command,
// unwrapping wrapper chains to ask the innermost document, and returns
// the Selector through which the command should be issued — the
// *outermost* document, so wrappers see (and bill, and trace) the
// command exactly once.
func SelectorOf(doc Document) (Selector, bool) {
	s, ok := doc.(Selector)
	if !ok {
		return nil, false
	}
	// The innermost document decides nativeness by implementing
	// Selector itself.
	if _, ok := innermost(doc).(Selector); !ok {
		return nil, false
	}
	return s, true
}

// TreeHolder is the capability of documents whose nodes can stand for
// immutable trees: a TreeDoc, whose every node is one, and an LXP
// buffer, whose nodes that arrived without a hole are. Explorer.Shared
// asks the innermost document of a wrapper chain for it.
type TreeHolder interface {
	// ClosedTree returns the subtree rooted at p as the document holds
	// it — its own nodes, shared and read-only — when that subtree is
	// closed, and nil otherwise (also for an ID the document did not
	// issue). It is not a navigation command: it reads one bit of p and
	// walks nothing.
	ClosedTree(p ID) *xmltree.Tree
}

// Select advances from p to the first sibling to the right whose label
// satisfies sigma, using the Document's native SelectRight when the
// SelectorOf probe grants it and an r/f scan otherwise. When fromSelf
// is true, p itself is a candidate.
func Select(d Document, p ID, sigma Predicate, fromSelf bool) (ID, error) {
	if s, ok := SelectorOf(d); ok {
		return s.SelectRight(p, sigma, fromSelf)
	}
	cur := p
	if !fromSelf {
		next, err := d.Right(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	for cur != nil {
		l, err := d.Fetch(cur)
		if err != nil {
			return nil, err
		}
		if sigma(l) {
			return cur, nil
		}
		next, err := d.Right(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return nil, nil
}

// LabelIs returns a predicate matching exactly the given label.
func LabelIs(label string) Predicate {
	return func(l string) bool { return l == label }
}

// Op names a navigation command, for traces and complexity accounting.
type Op string

// The DOM-VXD navigation commands.
const (
	OpDown   Op = "d"
	OpRight  Op = "r"
	OpFetch  Op = "f"
	OpSelect Op = "select"
	OpRoot   Op = "root"
)

// ErrForeignID is returned (wrapped) by Documents handed an ID they
// did not issue.
var ErrForeignID = fmt.Errorf("nav: foreign node id")

// --- Materialized tree documents -----------------------------------------

// TreeDoc is a Document over a materialized xmltree.Tree. Node IDs are
// *treeNode pointers carrying parent/position so Right is O(1).
//
// IDs are allocated once per node and cached on the parent (kids), so
// repeated navigation over the same region — the common case for the
// lazy engine's re-scans — allocates nothing after the first visit.
// The cache trades memory proportional to the visited region for
// alloc-free warm navigation; it never changes which commands are
// issued or billed.
type TreeDoc struct {
	root *treeNode

	// mu guards carving new ID chunks; chunk is the current chunk and
	// is replaced (never regrown) so issued *treeNode IDs stay valid.
	mu    sync.Mutex
	chunk []treeNode
}

type treeNode struct {
	t      *xmltree.Tree
	parent *treeNode
	idx    int // position among parent's children

	// kids caches this node's child IDs. built is an atomic
	// publication flag: kids is written before built.Store(true), and
	// readers only touch kids after built.Load() reports true, so a
	// TreeDoc shared by concurrent sessions stays race-free without a
	// per-node allocation.
	kids  []treeNode
	built atomic.Bool
}

const treeDocChunk = 64

// children returns the cached child-ID slice, carving it from the
// doc's chunk arena on first use.
func (d *TreeDoc) children(n *treeNode) []treeNode {
	if n.built.Load() {
		return n.kids
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n.built.Load() {
		return n.kids
	}
	m := len(n.t.Children)
	if cap(d.chunk)-len(d.chunk) < m {
		c := treeDocChunk
		if m > c {
			c = m
		}
		d.chunk = make([]treeNode, 0, c)
	}
	ks := d.chunk[len(d.chunk) : len(d.chunk)+m : len(d.chunk)+m]
	d.chunk = d.chunk[:len(d.chunk)+m]
	for i, c := range n.t.Children {
		ks[i].t, ks[i].parent, ks[i].idx = c, n, i
	}
	n.kids = ks
	n.built.Store(true)
	return ks
}

// NewTreeDoc returns a Document exposing t. The document hands out
// t's own nodes (Tree), so t must not be mutated afterwards.
func NewTreeDoc(t *xmltree.Tree) *TreeDoc {
	return &TreeDoc{root: &treeNode{t: t}}
}

// Root implements Document.
func (d *TreeDoc) Root() (ID, error) { return d.root, nil }

func (d *TreeDoc) node(p ID) (*treeNode, error) {
	n, ok := p.(*treeNode)
	if !ok || n == nil {
		return nil, fmt.Errorf("%w: %T", ErrForeignID, p)
	}
	return n, nil
}

// Down implements Document.
func (d *TreeDoc) Down(p ID) (ID, error) {
	n, err := d.node(p)
	if err != nil {
		return nil, err
	}
	if len(n.t.Children) == 0 {
		return nil, nil
	}
	return &d.children(n)[0], nil
}

// Right implements Document.
func (d *TreeDoc) Right(p ID) (ID, error) {
	n, err := d.node(p)
	if err != nil {
		return nil, err
	}
	if n.parent == nil || n.idx+1 >= len(n.parent.t.Children) {
		return nil, nil
	}
	return &d.children(n.parent)[n.idx+1], nil
}

// Fetch implements Document.
func (d *TreeDoc) Fetch(p ID) (string, error) {
	n, err := d.node(p)
	if err != nil {
		return "", err
	}
	return n.t.Label, nil
}

// SelectRight implements Selector natively: a materialized source can
// answer select(σ) as a single command (the scan is local to the
// source, not a sequence of mediated navigations).
func (d *TreeDoc) SelectRight(p ID, sigma Predicate, fromSelf bool) (ID, error) {
	n, err := d.node(p)
	if err != nil {
		return nil, err
	}
	if n.parent == nil {
		// The root has no siblings; only fromSelf can match.
		if fromSelf && sigma(n.t.Label) {
			return n, nil
		}
		return nil, nil
	}
	start := n.idx
	if !fromSelf {
		start++
	}
	sibs := n.parent.t.Children
	for i := start; i < len(sibs); i++ {
		if sigma(sibs[i].Label) {
			return &d.children(n.parent)[i], nil
		}
	}
	return nil, nil
}

// ClosedTree implements TreeHolder: every subtree of a TreeDoc is
// closed, so it returns the underlying subtree of an ID issued by this
// document — the document's own nodes, not a copy, shared and
// read-only. Explorer.Shared hands it out as the value of a source
// node after walking it through the wrapper chain, which is how
// operator keys and conditions over in-memory sources read values
// without copying them.
func (d *TreeDoc) ClosedTree(p ID) *xmltree.Tree {
	n, err := d.node(p)
	if err != nil {
		return nil
	}
	return n.t
}
