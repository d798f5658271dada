package server

import (
	"mix/internal/mediator"
	"mix/internal/predict"
)

// SpecParked returns the spec queries parked between drains, by view
// key (empty with prefetch off).
func SpecParked(s *Server) map[predict.Key]*mediator.Result {
	out := map[predict.Key]*mediator.Result{}
	if p := s.prefetch; p != nil {
		p.mu.Lock()
		for k, q := range p.parked {
			out[k] = q.res
		}
		p.mu.Unlock()
	}
	return out
}

// SpawnDrain starts a speculative drain of region of the view keyed k,
// compiled from query, as a session's confident prediction would; it
// reports whether a drain was issued.
func SpawnDrain(s *Server, k predict.Key, query string, region int, deep bool) bool {
	return s.prefetch.spawn(k, query, region, deep)
}

// SpecPool reports the spec engine pool's idle and created engines.
func SpecPool(s *Server) (idle int, created int64) {
	p := s.prefetch.pool
	p.mu.Lock()
	idle = len(p.idle)
	p.mu.Unlock()
	return idle, p.created.Load()
}
