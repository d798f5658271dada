package core

import (
	"fmt"

	"mix/internal/nav"
	"mix/internal/trace"
)

// VDoc exposes a lazy Node tree as a nav.Document: the virtual XML
// answer document the client navigates. Node-ids are handle structs
// pairing the node with the lazy remainder of its sibling list — the
// Skolem-style encoding of the paper's association information a(p):
// everything needed to continue the navigation down or right from p is
// inside the id itself, so the mediator keeps no association tables
// (Section 3, "the node-ids directly encode the association
// information").
//
// A VDoc that Query.document builds navigates under its query's
// navigation lock: the demand document and any speculative drain's
// document share one set of lazy logs, hash indexes and group state,
// and interleave one navigation at a time (see Query.navMu).
type VDoc struct {
	root Node

	// q is the query whose lazy state this document navigates (nil for
	// NewVDoc); rec is the recorder its operator spans go to while it
	// holds q's lock (nil drops them).
	q   *Query
	rec *trace.Recorder
	// spec counts into srcNavs the source navigations made while this
	// document holds q's lock: a drain's share of the query's total.
	spec    bool
	srcNavs int64
}

// NewVDoc exposes root as a virtual document.
func NewVDoc(root Node) *VDoc { return &VDoc{root: root} }

// vid is the node-id: the handle to a node plus the lazy sibling
// remainder (nil for the root, which has no siblings).
type vid struct {
	n    Node
	rest list
}

// Root implements nav.Document. It performs no source access: the root
// node is a lazy handle resolved on first f or d.
func (d *VDoc) Root() (nav.ID, error) {
	return &vid{n: d.root}, nil
}

// lock takes the query's navigation lock and points its operator trace
// wrappers at this document's recorder. It returns the query's source
// navigations so far, which unlock takes back: `defer d.unlock(d.lock())`.
func (d *VDoc) lock() int64 {
	q := d.q
	if q == nil {
		return 0
	}
	q.navMu.Lock()
	q.rec = d.rec
	if !d.spec {
		return 0
	}
	return q.src.Navigations()
}

func (d *VDoc) unlock(navs int64) {
	q := d.q
	if q == nil {
		return
	}
	if d.spec {
		d.srcNavs += q.src.Navigations() - navs
	}
	q.navMu.Unlock()
}

func (d *VDoc) id(p nav.ID) (*vid, error) {
	v, ok := p.(*vid)
	if !ok || v == nil {
		return nil, fmt.Errorf("%w: %T", nav.ErrForeignID, p)
	}
	return v, nil
}

// Down implements nav.Document.
func (d *VDoc) Down(p nav.ID) (nav.ID, error) {
	v, err := d.id(p)
	if err != nil {
		return nil, err
	}
	defer d.unlock(d.lock())
	h, rest, err := v.n.Children().next()
	if err != nil {
		return nil, err
	}
	if h == nil {
		return nil, nil
	}
	return &vid{n: h, rest: rest}, nil
}

// Right implements nav.Document.
func (d *VDoc) Right(p nav.ID) (nav.ID, error) {
	v, err := d.id(p)
	if err != nil {
		return nil, err
	}
	defer d.unlock(d.lock())
	if v.rest == nil {
		return nil, nil
	}
	h, rest, err := v.rest.next()
	if err != nil {
		return nil, err
	}
	if h == nil {
		return nil, nil
	}
	return &vid{n: h, rest: rest}, nil
}

// Fetch implements nav.Document.
func (d *VDoc) Fetch(p nav.ID) (string, error) {
	v, err := d.id(p)
	if err != nil {
		return "", err
	}
	defer d.unlock(d.lock())
	return v.n.Label()
}
