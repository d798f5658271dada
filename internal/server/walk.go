package server

import (
	"mix/internal/core"
	"mix/internal/nav"
	"mix/internal/trace"
)

// This file is the server's derive-ahead (DESIGN.md §15). The drill
// walk: a client's first descent into a region of the answer the
// region cache does not hold derives the whole region before the down
// is answered, so the window built at the landed node ships the rest of
// it in one frame. Derive-ahead for scans: a right onto a region top
// first derives the next DeriveAhead region tops, so the window built
// at the landed node ships them as leaves and the client's next rights
// cost no round trip.

// Default walk budget: enough navigations to derive a sizeable region,
// few enough that a client who reads only the region's first child
// stays cheap.
const (
	DefaultPrefetchNavs  = 4096
	DefaultPrefetchBytes = 256 << 10
)

// DeriveAhead is how many region tops past the one a right lands on
// that right derives first, and how many leaves past the landed node a
// window ships. A sweep over the personas' round trips (DESIGN.md §15)
// chose it: 2, 4, 8 and 16 cost a deep-drill session 41, 39, 38 and 37
// round trips, while each top derived ahead is work a client that stops
// scanning never reads.
const DeriveAhead = 8

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

// right answers a right from base. With prefetch on, over a view whose
// plan reads no LXP-buffered source, a right from a region top whose
// entry does not yet know DeriveAhead tops past the landed one first
// derives them on the session's document (regioncache.Doc.DeriveRight),
// stepping only past the tops the entry knows. A derivation never waits
// on a fill there, and it leaves the open and the down from the root —
// the first answer's path — alone.
//
// Like the walk, the steps are part of this right: their source spans
// nest under the right's one client span, and the session's counters
// count the right alone. An error a step hits is left for the client's
// next move to report.
func (s *session) right(base nav.ID) (nav.ID, error) {
	if !s.ahead {
		return s.doc.Right(base)
	}
	if path, _ := s.cached.Path(base); len(path) != 1 {
		return s.doc.Right(base)
	}
	if past, ended := s.cached.Known(base); ended || past > DeriveAhead {
		return s.doc.Right(base)
	}
	sp := s.rec.Begin(trace.ClientLabel, string(nav.OpRight))
	defer s.rec.End(sp)
	s.nav.Right.Add(1)
	id, err := s.cached.Right(base)
	if err == nil && id != nil {
		_ = s.cached.DeriveRight(id, DeriveAhead)
	}
	return id, err
}
