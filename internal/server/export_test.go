package server

// OpCounts returns the observation count of every operator-latency
// histogram, by label.
func OpCounts(s *Server) map[string]int64 {
	out := map[string]int64{}
	for _, l := range s.opHist.Labels() {
		out[l] = s.opHist.Histogram(l).Snapshot().Count
	}
	return out
}
