package regioncache

import (
	"fmt"
	"slices"

	"mix/internal/nav"
)

// A read-ahead window is the part of an entry a server ships with a
// navigation result, so its client can answer the commands that follow
// without asking: the landed node, its subtree, then its right siblings
// and their subtrees, in document order. It is a closed prefix, then
// open leaves. The prefix holds only closed subtrees (see
// cnode.isClosed) and ends at the first node that is not closed, at the
// end of a child list the entry does not know to be complete — there
// the last shipped node keeps Right = WindowOut, "ask the server" — or
// where a byte budget runs out. A closed subtree never changes, so
// every command the prefix answers costs no source work and no engine
// call, the prefix holds exactly the answers those commands would have
// got, and it never goes stale for the session.
//
// Where the prefix ends at a node that is not closed, the window goes on
// with that node and the right siblings after it that the entry knows,
// as leaves: Unknown set, no label, Down = WindowOut. A leaf ships only
// that the node exists and where it stands, so a client answers a right
// across it and asks for everything else. A leaf's label does not ship
// even when the entry knows it: a client that holds a label answers a
// fetch without asking, and one reader needs every fetch of an open
// node to reach the server: bench/layers.go's proxy probe, which times
// Fetches of an open first child and requires each to be proxied, until
// ROADMAP items 1 and 16 retire it. A window whose only node would be
// the landed node as a leaf is empty.
//
// Everything in the prefix is closed, so the entry can only grow after
// it and WindowNode's index walk keeps naming the nodes it shipped. A
// leaf can grow, so WindowNode names it by its place in the sibling
// list instead, which does not move: a child list only grows at its end.

// Link values of a WindowNode besides a window index.
const (
	WindowNone = -1 // no such node (⊥)
	WindowOut  = -2 // the node exists but lies past the window's end
)

// WindowNode is one node of a window, or of an exported Region: its
// label and the window indexes of its first child and of its right
// sibling. The JSON tags are vxdp.WinNode's; Unknown marks a node whose
// label is not shipped: in a Region, one the entry has not fetched; in
// a window, a leaf.
type WindowNode struct {
	Label   string `json:"l"`
	Down    int32  `json:"d"`
	Right   int32  `json:"r"`
	Unknown bool   `json:"u,omitempty"`
}

// Shape says where a window's leaves stand: nodes 0 … Closed-1 are the
// closed prefix, which spans Tops places of the anchor's sibling list,
// and node Closed+j, a leaf, is the anchor's (Tops+j)-th right sibling.
type Shape struct{ Closed, Tops int }

// Window returns dst[:0] extended by the window at anchor, an id this
// document issued, and the window's shape. cost(label, unknown) is a
// node's share of budget (a leaf's is cost("", true)); the window stops
// before the first node that does not fit, so it is always a prefix of
// the window order and WindowNode can find node i without knowing the
// budget. After the closed prefix come at most leaves leaves past the
// anchor, and the anchor itself when it is the first leaf.
func (d *Doc) Window(anchor nav.ID, dst []WindowNode, budget int, cost func(label string, unknown bool) int, leaves int) ([]WindowNode, Shape) {
	w := windowWalk{dst: dst[:0], budget: budget, cost: cost}
	r, err := d.id(anchor)
	if err != nil {
		return w.dst, Shape{}
	}
	d.entry.mu.RLock()
	defer d.entry.mu.RUnlock()
	var root [1]*cnode
	scope, parent, _ := d.entry.windowScope(r.path, &root)
	if scope == nil {
		return w.dst, Shape{}
	}
	// The root has no siblings: its one-node list is whole.
	ended := len(r.path) == 0 || d.entry.node(parent).complete
	prev, tops := w.list(scope, -1, ended)
	sh := Shape{Closed: len(w.dst), Tops: tops}
	if w.open {
		if tops == 0 {
			leaves++ // the anchor leads the leaves
		}
		end := min(len(scope), tops+leaves)
		w.leaves(scope[tops:end], prev, ended && end == len(scope))
		if tops == 0 && len(w.dst) == 1 {
			w.dst = w.dst[:0]
		}
	}
	return w.dst, sh
}

// Known reports how many right siblings of id, an id this document
// issued, the entry knows, and whether it knows that the list ends
// after them. The answer root has none, and its list is whole.
func (d *Doc) Known(id nav.ID) (past int, ended bool) {
	r, err := d.id(id)
	if err != nil || len(r.path) == 0 {
		return 0, true
	}
	d.entry.mu.RLock()
	defer d.entry.mu.RUnlock()
	p := d.entry.node(r.path[:len(r.path)-1])
	return len(p.kids) - 1 - r.path[len(r.path)-1], p.complete
}

// DeriveRight steps right from the last sibling of id the entry knows
// until the entry knows n right siblings of id or where their list
// ends. Every step is a miss the producer derives, so nothing the entry
// knows is navigated again. It returns the first navigation error.
func (d *Doc) DeriveRight(id nav.ID, n int) error {
	r, err := d.id(id)
	if err != nil || len(r.path) == 0 {
		return err
	}
	parent, i := r.path[:len(r.path)-1], r.path[len(r.path)-1]
	for {
		past, ended := d.Known(id)
		if ended || past >= n {
			return nil
		}
		last := &rid{d: d, path: append(slices.Clip(parent), i+past)}
		if next, err := d.Right(last); err != nil || next == nil {
			return err
		}
	}
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

// WindowNode returns the id of node i of a window of shape sh at
// anchor. A server that shipped a window resolves the handles it
// reserved for the window's nodes with it, lazily, when a command first
// names one.
func (d *Doc) WindowNode(anchor nav.ID, sh Shape, i int) (nav.ID, error) {
	r, err := d.id(anchor)
	if err != nil {
		return nil, err
	}
	d.entry.mu.RLock()
	defer d.entry.mu.RUnlock()
	var root [1]*cnode
	scope, parent, first := d.entry.windowScope(r.path, &root)
	switch {
	case i < 0 || scope == nil:
	case i < sh.Closed:
		path := append(make([]int, 0, len(parent)+8), parent...)
		if p, ok := seek(scope, first, path, &i); ok {
			return &rid{d: d, path: p[:len(p):len(p)]}, nil
		}
	case first >= 0 && sh.Tops+i-sh.Closed < len(scope):
		return &rid{d: d, path: append(slices.Clip(parent), first+sh.Tops+i-sh.Closed)}, nil
	}
	return nil, fmt.Errorf("regioncache: no node %d in the window at %v", i, r.path)
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
	cost   func(string, bool) int // nil: no cut
	cut    bool                   // the window ends here
	open   bool                   // … at a node that is not closed
}

// list appends nodes, each followed by its subtree, linking each to the
// next through Right. prev is the index of the node the first one is
// the right sibling of (-1 for none); ended reports that nodes is a
// whole child list. A window is cut before the first node that is not
// closed or over budget. Only when every node made it and the list is
// whole does the last one get Right = ⊥; anywhere else it keeps
// WindowOut, as does the Down of a node whose child list is not known
// to be empty and whose first child did not make it. It returns the
// index of the last node of nodes it appended (prev if none) and how
// many of nodes it appended.
func (w *windowWalk) list(nodes []*cnode, prev int, ended bool) (last, n int) {
	for _, node := range nodes {
		if w.cut {
			return prev, n
		}
		if w.cost != nil {
			if !node.isClosed() {
				w.cut, w.open = true, true
				return prev, n
			}
			c := w.cost(node.label, false)
			if c > w.budget {
				w.cut = true
				return prev, n
			}
			w.budget -= c
		}
		at := len(w.dst)
		w.dst = append(w.dst, WindowNode{Label: node.label, Down: WindowNone, Right: WindowOut, Unknown: !node.labelKnown})
		if prev >= 0 {
			w.dst[prev].Right = int32(at)
		}
		prev = at
		n++
		if len(node.kids) > 0 || !node.complete {
			w.dst[at].Down = WindowOut
			w.list(node.kids, -1, node.complete)
			if len(w.dst) > at+1 {
				w.dst[at].Down = int32(at + 1)
			}
		}
	}
	if ended && prev >= 0 {
		w.dst[prev].Right = WindowNone
	}
	return prev, n
}

// leaves appends nodes as leaves, linked like list links them, while
// the budget lasts; ended reports that nodes ends a whole child list.
func (w *windowWalk) leaves(nodes []*cnode, prev int, ended bool) {
	for range nodes {
		c := w.cost("", true)
		if c > w.budget {
			return
		}
		w.budget -= c
		at := len(w.dst)
		w.dst = append(w.dst, WindowNode{Down: WindowOut, Right: WindowOut, Unknown: true})
		if prev >= 0 {
			w.dst[prev].Right = int32(at)
		}
		prev = at
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
