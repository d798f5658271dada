package server

import (
	"mix/internal/core"
	"mix/internal/nav"
	"mix/internal/trace"
)

// This file is the server's one derive-ahead, the drill walk (DESIGN.md
// §15): a client's first descent into a region of the answer the
// region cache does not hold derives the whole region before the down
// is answered, so the window built at the landed node ships the rest of
// it in one frame.

// Default walk budget: enough navigations to derive a sizeable region,
// few enough that a client who reads only the region's first child
// stays cheap.
const (
	DefaultPrefetchNavs  = 4096
	DefaultPrefetchBytes = 256 << 10
)

// DefaultPrefetchConfidence has no effect. It stays only because
// bench/ still passes it to WithPrefetchConfidence; it goes with
// ROADMAP item 1's bench edit.
const DefaultPrefetchConfidence = 0.5

// down answers a down from base. With prefetch on, a descent from a
// region top — a node whose answer path has length 1 — into a region
// the entry does not hold whole first derives that region on the
// session's document (core.WalkRegion).
//
// The walk is part of this down: its source spans nest under the
// down's one client span, its source navigations are demand's, and the
// session's counters count the down alone. The walk stops at the
// budget; a navigation error it hits is left for the down, or the
// client's next move, to report.
func (s *session) down(base nav.ID) (nav.ID, error) {
	if !s.srv.cfg.Prefetch || s.cached == nil {
		return s.doc.Down(base)
	}
	if path, _ := s.cached.Path(base); len(path) != 1 || s.cached.RegionKnown(path[0]) {
		return s.doc.Down(base)
	}
	sp := s.rec.Begin(trace.ClientLabel, string(nav.OpDown))
	defer s.rec.End(sp)
	s.nav.Down.Add(1)
	_ = core.WalkRegion(s.cached, base, s.srv.cfg.PrefetchBudget)
	return s.cached.Down(base)
}
