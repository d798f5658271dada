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
type VDoc struct {
	root Node
	q    *Query // the query whose answer this is (nil: none)
}

// NewVDoc exposes root as a virtual document.
func NewVDoc(root Node) *VDoc { return &VDoc{root: root} }

// Trace routes the spans of the query's next navigations to rec (nil:
// none); a pipeline built untraced stays untraced. A region-cache entry
// lends its producer each missing session's recorder through it.
func (d *VDoc) Trace(rec *trace.Recorder) {
	if q := d.q; q != nil {
		q.rec = rec
		for _, td := range q.traced {
			td.Rec = rec
		}
	}
}

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
	return v.n.Label()
}
