package server

import (
	"mix/internal/mediator"
)

// SpawnDrain starts a speculative drain of region of res, as a
// confident prediction of a session with res open would; it reports
// whether a drain was issued. Nothing waits for it but the caller.
func SpawnDrain(s *Server, res *mediator.Result, region int, deep bool) bool {
	return s.prefetch.spawn(res.RegionKey(), res, region, deep) != nil
}

// SessionDrain reports, for the one live session, the query its open
// view navigates and the query its last drain ran on (nil when it has
// spawned none since it opened the view).
func SessionDrain(s *Server) (view, drained *mediator.Result, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) != 1 {
		return nil, nil, false
	}
	for _, sess := range s.sessions {
		view = sess.viewRes
		if sess.drain != nil {
			drained = sess.drain.res
		}
	}
	return view, drained, true
}

// OpCounts returns the observation count of every operator-latency
// histogram, by label.
func OpCounts(s *Server) map[string]int64 {
	out := map[string]int64{}
	for _, l := range s.opHist.Labels() {
		out[l] = s.opHist.Histogram(l).Snapshot().Count
	}
	return out
}
