package server

import (
	"sort"

	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/vxdp"
)

// Read-ahead windows, the server half (the vxdp package documents the
// wire and the client half). A session whose view has a region-cache
// entry ships, with every root/down/right/select result, the closed
// subtrees the entry holds from the landed node on, then up to
// DeriveAhead of the right siblings the entry knows after them as
// leaves, within vxdp.WindowBytes (regioncache.Doc.Window). Shipping
// costs no source work and no engine call: a closed subtree answers
// every navigation in it from the cache, and a leaf ships only what
// the entry knows. Node i of a window gets handle resp.ID+i, reserved
// as one range and resolved only when a command names it, so a window
// costs the handle table nothing per node.

// winRange is the handle range one shipped window reserved: handles
// first … first+count-1 are nodes 0 … count-1 of the window of shape
// shape at anchor.
type winRange struct {
	first  uint64
	count  int
	anchor nav.ID
	shape  regioncache.Shape
}

// winScratch is the memory windows are built and recorded in. Sessions
// take one from the server's pool at their first window and put it back
// when they end, so once the pool's scratch has grown a window
// allocates nothing.
type winScratch struct {
	win  []vxdp.WinNode
	rwin []regioncache.WindowNode
	// wins records the handle range each window shipped on the open
	// view reserved, in handle order.
	wins []winRange
}

// forget drops the windows of the open view; a session without
// scratch has none.
func (e *winScratch) forget() {
	if e != nil {
		clear(e.wins)
		e.wins = e.wins[:0]
	}
}

// window builds the window at id, which navigation just issued handle h
// for, and reserves its handles.
func (s *session) window(h uint64, id nav.ID) []vxdp.WinNode {
	if s.scr == nil {
		s.scr = s.srv.scratch.Get().(*winScratch)
	}
	e := s.scr
	var sh regioncache.Shape
	e.rwin, sh = s.cached.Window(id, e.rwin, vxdp.WindowBytes, vxdp.WinNodeBytes, DeriveAhead)
	e.win = e.win[:0]
	for _, n := range e.rwin {
		e.win = append(e.win, vxdp.WinNode{Label: n.Label, Down: n.Down, Right: n.Right, Unknown: n.Unknown})
	}
	if n := len(e.win); n > 1 {
		s.nextH += uint64(n - 1)
		e.wins = append(e.wins, winRange{first: h, count: n, anchor: id, shape: sh})
	}
	return e.win
}

// node resolves a wire handle: from the handle table, or — for a node a
// window shipped — through the entry from the window's anchor, once,
// memoized in the table.
func (s *session) node(h uint64) (nav.ID, bool) {
	if id, ok := s.handles[h]; ok {
		return id, true
	}
	if s.scr == nil {
		return nil, false
	}
	wins := s.scr.wins
	k := sort.Search(len(wins), func(k int) bool { return wins[k].first+uint64(wins[k].count) > h })
	if k == len(wins) || h < wins[k].first {
		return nil, false
	}
	w := &wins[k]
	id, err := s.cached.WindowNode(w.anchor, w.shape, int(h-w.first))
	if err != nil {
		return nil, false
	}
	s.handles[h] = id
	return id, true
}
