package regioncache

import (
	"slices"

	"mix/internal/xmltree"
)

// Region is the wire-portable rendering of an entry's explored region:
// its nodes in window order (see windowWalk), with nothing cut. It is
// the payload of the cluster L2 protocol's region_get/region_put ops
// (see internal/cluster and the vxdp region commands), so a peer can
// merge exactly what this node knows — no more, no less.
//
// A node's Unknown flag tells "label unknown" from "label is the empty
// string". A link tells "child list complete" from "more children may
// exist": Down = ⊥ is a known empty child list, Right = ⊥ the known end
// of one, and WindowOut marks where the region stops knowing.
type Region []WindowNode

// Nodes returns the number of nodes in the region.
func (r *Region) Nodes() int {
	if r == nil {
		return 0
	}
	return len(*r)
}

// Export renders the entry's explored region for the wire. The result
// shares no memory with the entry (labels are immutable strings).
func (e *Entry) Export() *Region {
	e.mu.RLock()
	defer e.mu.RUnlock()
	w := windowWalk{dst: make([]WindowNode, 0, e.root.size())}
	w.list([]*cnode{e.root}, -1, true) // the root has no siblings
	r := Region(w.dst)
	return &r
}

// size returns the number of known nodes in n's subtree.
func (n *cnode) size() int {
	s := 1
	for _, k := range n.kids {
		s += k.size()
	}
	return s
}

// Empty reports whether the region carries no information beyond an
// unexplored root — the export of a freshly created entry.
func (r *Region) Empty() bool {
	return r.Nodes() == 0 || len(*r) == 1 && (*r)[0].Unknown && (*r)[0].Down != WindowNone
}

// Complete reports whether the region is fully explored: merged into an
// empty entry, it leaves every label known and every child list
// complete.
func (r *Region) Complete() bool {
	e := Entry{root: &cnode{}}
	if r != nil {
		e.mergeRegion(*r)
	}
	return e.root.isClosed()
}

// Merge folds a peer's region into the entry, extending what is known
// and never contradicting it: labels only fill in where unknown, child
// lists only grow, completeness only switches on. Because every writer
// derives from the same (generation, registry version, view,
// fingerprint) answer document — the entry's producer, a peer's, or a
// semantic rebuild — concurrent merges can only agree. It reports
// whether the entry grew. A merge leaves Mutations alone: it counts
// what this node derived, so the flusher never sends a peer's region
// back to it.
func (e *Entry) Merge(r *Region) bool {
	if r == nil {
		return false
	}
	e.mu.Lock()
	before := e.bytes
	grew := e.mergeRegion(*r)
	delta := e.bytes - before
	e.mu.Unlock()
	e.account(delta)
	return grew
}

// mergeRegion is Merge's one linear pass over r in window order. There
// node i's first child can only be node i+1, and its right sibling only
// the node just past its subtree, so the pass reads every other link as
// "unknown past here": a region from a hostile peer can make it neither
// loop, recurse nor visit a node twice. A child past a list the entry
// knows to be complete contradicts the entry and ends the pass; what was
// merged before it stays, since it can only be true. It reports
// whether the entry grew. Caller holds e.mu for writing.
func (e *Entry) mergeRegion(r Region) (grew bool) {
	// up holds the lists the pass is inside: each list's parent, the
	// parent's index in r and the position of the list's current node.
	type open struct {
		parent  *cnode
		at, pos int
	}
	var up []open
	n := e.root
	for i := 0; i < len(r); {
		if w := r[i]; !w.Unknown && !n.labelKnown {
			n.label, n.labelKnown = w.Label, true
			e.bytes += int64(len(w.Label))
			grew = true
		}
		at := i
		i++
		if r[at].Down == int32(i) && i < len(r) {
			up = append(up, open{parent: n, at: at})
		} else {
			if r[at].Down == WindowNone && len(n.kids) == 0 && !n.complete {
				n.complete, grew = true, true
			}
			// at's subtree ends before i: climb to the list i goes on.
			for len(up) > 0 && (r[at].Right != int32(i) || i == len(r)) {
				top := up[len(up)-1]
				if r[at].Right == WindowNone && len(top.parent.kids) == top.pos+1 && !top.parent.complete {
					top.parent.complete, grew = true, true
				}
				at, up = top.at, up[:len(up)-1]
			}
			if len(up) == 0 {
				return grew // past the root's subtree
			}
			up[len(up)-1].pos++
		}
		top := up[len(up)-1]
		if p := top.parent; top.pos == len(p.kids) {
			if p.complete {
				return grew
			}
			p.kids = append(p.kids, &cnode{})
			e.bytes += nodeBytes
			grew = true
		}
		n = top.parent.kids[top.pos]
	}
	return grew
}

// The reads below serve the semantic rebuild (Cache.Subsume), which
// decodes a complete region — every label known, every child list
// whole — and so never meets WindowOut or an unknown label. Node 0 is
// the root; a node's children and right sibling are named by index, -1
// for none.

// Label returns the label of node i.
func (r *Region) Label(i int) string { return (*r)[i].Label }

// Child returns the index of node i's first child, or -1.
func (r *Region) Child(i int) int { return max(int((*r)[i].Down), -1) }

// Next returns the index of node i's right sibling, or -1.
func (r *Region) Next(i int) int { return max(int((*r)[i].Right), -1) }

// size returns the number of nodes in the subtree at node i.
func (r *Region) size(i int) int {
	n := 1
	for c := r.Child(i); c >= 0; c = r.Next(c) {
		n += r.size(c)
	}
	return n
}

// Equal reports whether the subtrees at nodes i and j are equal: the
// same labels in the same shape.
func (r *Region) Equal(i, j int) bool {
	if r.Label(i) != r.Label(j) {
		return false
	}
	a, b := r.Child(i), r.Child(j)
	for ; a >= 0 && b >= 0; a, b = r.Next(a), r.Next(b) {
		if !r.Equal(a, b) {
			return false
		}
	}
	return a == b
}

// Subtree materializes the subtree at node i: one allocation for its
// nodes and one for their child lists.
func (r *Region) Subtree(i int) *xmltree.Tree {
	nodes := (*r)[i : i+r.size(i)]
	ts := make([]xmltree.Tree, len(nodes))
	kids := make([]*xmltree.Tree, len(nodes)-1) // every node but the root is a child
	for k := range nodes {
		ts[k].Label = nodes[k].Label
		n := 0
		for c := nodes[k].Down; c >= 0; c = (*r)[c].Right {
			kids[n] = &ts[int(c)-i]
			n++
		}
		ts[k].Children, kids = kids[:n:n], kids[n:]
	}
	return &ts[0]
}

// RegionBuilder writes a complete region tree-wise: Open starts a node
// as the next child of the open one, Copy appends a copy of another
// region's subtree there, and Close ends the open node's child list.
// The first node opened or copied is the root. The zero value is an
// empty builder.
type RegionBuilder struct {
	dst  Region
	open []struct{ at, last int32 } // open nodes, innermost last, with their last child
}

// Open starts a node labelled label.
func (b *RegionBuilder) Open(label string) {
	at := int32(len(b.dst))
	if n := len(b.open); n > 0 {
		p := &b.open[n-1]
		if p.last == WindowNone {
			b.dst[p.at].Down = at
		} else {
			b.dst[p.last].Right = at
		}
		p.last = at
	}
	b.dst = append(b.dst, WindowNode{Label: label, Down: WindowNone, Right: WindowNone})
	b.open = append(b.open, struct{ at, last int32 }{at, WindowNone})
}

// Copy appends a copy of the subtree at node i of r, a complete region.
func (b *RegionBuilder) Copy(r *Region, i int) {
	b.Open(r.Label(i))
	for c := r.Child(i); c >= 0; c = r.Next(c) {
		b.Copy(r, c)
	}
	b.Close()
}

// Grow makes room for n more nodes.
func (b *RegionBuilder) Grow(n int) { b.dst = slices.Grow(b.dst, n) }

// Close ends the child list of the innermost open node.
func (b *RegionBuilder) Close() { b.open = b.open[:len(b.open)-1] }

// Region returns the region built so far.
func (b *RegionBuilder) Region() *Region { return &b.dst }
