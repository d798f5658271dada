package regioncache

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
// semantic rebuild — concurrent merges can only agree. A merge leaves
// Mutations alone: it counts what this node derived, so the flusher
// never sends a peer's region back to it.
func (e *Entry) Merge(r *Region) {
	if r == nil {
		return
	}
	e.mu.Lock()
	before := e.bytes
	e.mergeRegion(*r)
	delta := e.bytes - before
	e.mu.Unlock()
	e.account(delta)
}

// mergeRegion is Merge's one linear pass over r in window order. There
// node i's first child can only be node i+1, and its right sibling only
// the node just past its subtree, so the pass reads every other link as
// "unknown past here": a region from a hostile peer can make it neither
// loop, recurse nor visit a node twice. A child past a list the entry
// knows to be complete contradicts the entry and ends the pass; what was
// merged before it stays, since it can only be true. Each write is
// guarded by the unknown label or incomplete list it fills, so a closed
// node is never written (see cnode). Caller holds e.mu for writing.
func (e *Entry) mergeRegion(r Region) {
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
		}
		at := i
		i++
		if r[at].Down == int32(i) && i < len(r) {
			up = append(up, open{parent: n, at: at})
		} else {
			if r[at].Down == WindowNone && len(n.kids) == 0 && !n.complete {
				n.complete = true
			}
			// at's subtree ends before i: climb to the list i goes on.
			for len(up) > 0 && (r[at].Right != int32(i) || i == len(r)) {
				top := up[len(up)-1]
				if r[at].Right == WindowNone && len(top.parent.kids) == top.pos+1 && !top.parent.complete {
					top.parent.complete = true
				}
				at, up = top.at, up[:len(up)-1]
			}
			if len(up) == 0 {
				return // past the root's subtree
			}
			up[len(up)-1].pos++
		}
		top := up[len(up)-1]
		if p := top.parent; top.pos == len(p.kids) {
			if p.complete {
				return
			}
			p.kids = append(p.kids, &cnode{})
			e.bytes += nodeBytes
		}
		n = top.parent.kids[top.pos]
	}
}
