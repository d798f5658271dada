package regioncache

import (
	"fmt"

	"mix/internal/nav"
)

// A read-ahead window is the part of an entry a server ships with a
// navigation result, so its client can answer the commands that follow
// without asking: the landed node, its subtree, then its right siblings
// and their subtrees, in document order. It holds only closed subtrees
// (see cnode.isClosed) and is cut at the first node that is not closed,
// at the end of a child list the entry does not know to be complete —
// there the last shipped node keeps Right = WindowOut, "ask the server"
// — and where a byte budget runs out. A closed subtree never changes, so
// every command a window answers costs no source work and no engine
// call, the window holds exactly the answers those commands would have
// got, and it never goes stale for the session. Everything before the
// cut is closed, so the entry can only grow after the last shipped node
// and WindowNode's index walk keeps naming the nodes that were shipped.

// Link values of a WindowNode besides a window index.
const (
	WindowNone = -1 // no such node (⊥)
	WindowOut  = -2 // the node exists but lies past the window's end
)

// WindowNode is one node of a window, or of an exported Region: its
// label and the window indexes of its first child and of its right
// sibling. The JSON tags are vxdp.WinNode's; Unknown, set only in a
// Region, marks a node whose label the entry has not fetched.
type WindowNode struct {
	Label   string `json:"l"`
	Down    int32  `json:"d"`
	Right   int32  `json:"r"`
	Unknown bool   `json:"u,omitempty"`
}

// Complete reports whether the document's entry is fully explored (see
// Entry.Complete).
func (d *Doc) Complete() bool { return d.entry.Complete() }

// Window returns dst[:0] extended by the window at anchor, an id this
// document issued. cost(label) is a node's share of budget; the window
// stops before the first node that does not fit, so it is always a
// prefix of the window order and WindowNode can find node i without
// knowing the budget. The window is empty when anchor is not closed.
func (d *Doc) Window(anchor nav.ID, dst []WindowNode, budget int, cost func(label string) int) []WindowNode {
	w := windowWalk{dst: dst[:0], budget: budget, cost: cost}
	r, err := d.id(anchor)
	if err != nil {
		return w.dst
	}
	d.entry.mu.RLock()
	defer d.entry.mu.RUnlock()
	var root [1]*cnode
	if scope, parent, _ := d.entry.windowScope(r.path, &root); scope != nil {
		// The root has no siblings: its one-node list is whole.
		w.list(scope, -1, len(r.path) == 0 || d.entry.node(parent).complete)
	}
	return w.dst
}

// Path returns the path from the answer root to id, an id this
// document issued, as child indexes outermost first; ok is false for a
// foreign id. The slice is the id's own and must not be modified.
func (d *Doc) Path(id nav.ID) (path []int, ok bool) {
	r, err := d.id(id)
	if err != nil {
		return nil, false
	}
	return r.path, true
}

// RegionKnown reports whether the document's entry holds the
// region-th top-level subtree of the answer whole (Entry.RegionKnown).
func (d *Doc) RegionKnown(region int) bool { return d.entry.RegionKnown(region) }

// WindowNode returns the id of node i of the window at anchor. A server
// that shipped a window resolves the handles it reserved for the window's
// nodes with it, lazily, when a command first names one.
func (d *Doc) WindowNode(anchor nav.ID, i int) (nav.ID, error) {
	r, err := d.id(anchor)
	if err != nil {
		return nil, err
	}
	d.entry.mu.RLock()
	defer d.entry.mu.RUnlock()
	var root [1]*cnode
	scope, parent, first := d.entry.windowScope(r.path, &root)
	if i >= 0 && scope != nil {
		path := append(make([]int, 0, len(parent)+8), parent...)
		if p, ok := seek(scope, first, path, &i); ok {
			return &rid{d: d, path: p[:len(p):len(p)]}, nil
		}
	}
	return nil, fmt.Errorf("regioncache: no node %d in the window at %s", i, pathKey(r.path))
}

// windowScope returns the nodes a window at path walks, each followed by
// its subtree: the node at path and its right siblings. parent is the
// parent's path and first the node's index in it; a nil scope means the
// path is not in the tree. The root's scope is the root alone (its path
// is empty, so it has no parent path and no index); it lives in *root,
// the caller's scratch. Caller holds e.mu.
func (e *Entry) windowScope(path []int, root *[1]*cnode) (scope []*cnode, parent []int, first int) {
	if len(path) == 0 {
		root[0] = e.root
		return root[:], nil, -1
	}
	parent, first = path[:len(path)-1], path[len(path)-1]
	p := e.node(parent)
	if p == nil || first < 0 || first >= len(p.kids) {
		return nil, nil, 0
	}
	return p.kids[first:], parent, first
}

// windowWalk builds one window, or with no cost function one export
// (Entry.Export).
type windowWalk struct {
	dst    []WindowNode
	budget int
	cost   func(string) int // nil: no cut
	cut    bool             // the window ends here
}

// list appends nodes, each followed by its subtree, linking each to the
// next through Right. prev is the index of the node the first one is
// the right sibling of (-1 for none); ended reports that nodes is a
// whole child list. A window is cut before the first node that is not
// closed or over budget. Only when every node made it and the list is
// whole does the last one get Right = ⊥; anywhere else it keeps
// WindowOut, as does the Down of a node whose child list is not known
// to be empty and whose first child did not make it.
func (w *windowWalk) list(nodes []*cnode, prev int, ended bool) {
	for _, n := range nodes {
		if w.cut {
			return
		}
		if w.cost != nil {
			if c := w.cost(n.label); c <= w.budget && n.isClosed() {
				w.budget -= c
			} else {
				w.cut = true
				return
			}
		}
		at := len(w.dst)
		w.dst = append(w.dst, WindowNode{Label: n.label, Down: WindowNone, Right: WindowOut, Unknown: !n.labelKnown})
		if prev >= 0 {
			w.dst[prev].Right = int32(at)
		}
		prev = at
		if len(n.kids) > 0 || !n.complete {
			w.dst[at].Down = WindowOut
			w.list(n.kids, -1, n.complete)
			if len(w.dst) > at+1 {
				w.dst[at].Down = int32(at + 1)
			}
		}
	}
	if ended && prev >= 0 {
		w.dst[prev].Right = WindowNone
	}
}

// seek walks nodes in window order — nodes[j] has index first+j under
// path, and each is followed by its subtree — counting *i down, and
// returns the path of the node where it reaches 0.
func seek(nodes []*cnode, first int, path []int, i *int) ([]int, bool) {
	for j, n := range nodes {
		p := path
		if first >= 0 {
			p = append(path, first+j)
		}
		if *i == 0 {
			return p, true
		}
		*i--
		if q, ok := seek(n.kids, 0, p, i); ok {
			return q, true
		}
	}
	return nil, false
}
