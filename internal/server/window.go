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
// subtrees the entry holds from the landed node on, up to
// vxdp.WindowBytes (regioncache.Doc.Window). Shipping costs no source
// work and no engine call: a closed subtree answers every navigation
// in it from the cache. Node i of a window gets handle resp.ID+i,
// reserved as one range and resolved only when a command names it, so
// a window costs the handle table nothing per node. With prefetch on,
// the session turns what a window lets the client skip back into
// region engagements (noteWindow, node).

// winRange is the handle range one shipped window reserved: handles
// first … first+count-1 are nodes 0 … count-1 of the window at anchor.
type winRange struct {
	first  uint64
	count  int
	anchor nav.ID
}

// winScratch is the memory windows are built in. Sessions take one from
// the server's pool at their first window and put it back when they
// end, so once the pool's scratch has grown a window allocates nothing.
type winScratch struct {
	win  []vxdp.WinNode
	rwin []regioncache.WindowNode
}

// window builds the window at id, which navigation just issued handle h
// for, and reserves its handles.
func (s *session) window(h uint64, id nav.ID) []vxdp.WinNode {
	if s.scr == nil {
		s.scr = s.srv.scratch.Get().(*winScratch)
	}
	e := s.scr
	e.rwin = s.cached.Window(id, e.rwin, vxdp.WindowBytes, vxdp.WinNodeBytes)
	e.win = e.win[:0]
	for _, n := range e.rwin {
		e.win = append(e.win, vxdp.WinNode{Label: n.Label, Down: n.Down, Right: n.Right})
	}
	if n := len(e.win); n > 1 {
		s.nextH += uint64(n - 1)
		s.wins = append(s.wins, winRange{first: h, count: n, anchor: id})
	}
	if s.geo != nil && len(e.win) > 0 {
		s.noteWindow(h, e.win)
	}
	return e.win
}

// node resolves a wire handle: from the handle table, or — for a node a
// window shipped — by walking the entry from the window's anchor, once,
// memoized in the table. With prefetch on, a window handle gets the
// region geometry of its entry path, so moves from it engage regions
// as moves from an issued handle do.
func (s *session) node(h uint64) (nav.ID, bool) {
	if id, ok := s.handles[h]; ok {
		return id, true
	}
	k := sort.Search(len(s.wins), func(k int) bool { return s.wins[k].first+uint64(s.wins[k].count) > h })
	if k == len(s.wins) || h < s.wins[k].first {
		return nil, false
	}
	w := &s.wins[k]
	id, err := s.cached.WindowNode(w.anchor, int(h-w.first))
	if err != nil {
		return nil, false
	}
	s.handles[h] = id
	if path, ok := s.cached.Path(id); ok && len(path) > 0 && s.geo != nil {
		s.geo[h] = nodePos{depth: len(path), top: path[0]}
	}
	return id, true
}
