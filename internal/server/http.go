package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"mix/internal/pathexpr"
	"mix/internal/telemetry"
	"mix/internal/trace"
	"mix/internal/vxdp"
	"mix/internal/wirejson"
	"mix/internal/xmltree"
)

// Handler returns the HTTP sidecar served by mixd -http: Prometheus
// metrics, a health check, and the pprof debug surface.
//
//	/metrics         Prometheus text format: session counters,
//	                 navigation counters by kind, per-source LXP
//	                 counters, and latency histograms (per wire command
//	                 always; per operator when tracing is on)
//	/healthz         200 "ok", or 503 "draining" once Shutdown began
//	/debug/slow      the slow-navigation flight ring: JSON by default,
//	                 rendered span trees with ?format=text
//	/debug/pprof/*   the standard runtime profiles
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/healthz", s.serveHealth)
	mux.HandleFunc("/debug/slow", s.serveSlow)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) serveHealth(w http.ResponseWriter, _ *http.Request) {
	if s.drainingNow() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// serveSlow dumps the slow-navigation flight ring. JSON (the wire
// SlowNav shape) by default; ?format=text renders each retained root as
// an indented span tree headed by when it happened and how slow it was.
func (s *Server) serveSlow(w http.ResponseWriter, r *http.Request) {
	resp := s.handleSlow()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.flight == nil {
			fmt.Fprintln(w, "slow-navigation recorder disabled (start mixd with -trace; -slow-ms >= 0)")
			return
		}
		fmt.Fprintf(w, "slow navigations: %d recorded, %d retained (threshold %s)\n",
			s.flight.Total(), len(resp.Slow), s.flight.Threshold())
		for _, sn := range resp.Slow {
			fmt.Fprintf(w, "\n#%d %s node=%s dur=%s\n", sn.Seq,
				time.UnixMilli(sn.UnixMs).UTC().Format(time.RFC3339Nano), sn.Node, time.Duration(sn.DurNs))
			fmt.Fprint(w, trace.Format([]*trace.Span{sn.Root}))
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Total int64          `json:"total"`
		Slow  []vxdp.SlowNav `json:"slow"`
	}{Total: s.flight.Total(), Slow: resp.Slow})
}

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.Stats()

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("mix_sessions_active", "VXDP sessions currently open", st.SessionsActive)
	counter("mix_sessions_total", "VXDP sessions accepted since start", st.SessionsTotal)
	counter("mix_sessions_evicted_total", "sessions evicted by idle or lifetime timeout", st.SessionsEvicted)
	counter("mix_sessions_denied_total", "connections refused over the session limit", st.SessionsDenied)
	counter("mix_msgs_total", "VXDP request frames served", st.Msgs)

	fmt.Fprintf(w, "# HELP mix_navigations_total navigation commands answered at the client boundary, by kind\n")
	fmt.Fprintf(w, "# TYPE mix_navigations_total counter\n")
	for _, kv := range []struct {
		kind string
		v    int64
	}{{"down", st.Down}, {"right", st.Right}, {"fetch", st.Fetch}, {"select", st.Select}, {"root", st.Root}} {
		fmt.Fprintf(w, "mix_navigations_total{kind=%q} %d\n", kv.kind, kv.v)
	}

	if len(s.cfg.SourceCounters) > 0 {
		names := make([]string, 0, len(s.cfg.SourceCounters))
		for name := range s.cfg.SourceCounters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# HELP mix_source_navigations_total navigation commands answered at a source boundary\n")
		fmt.Fprintf(w, "# TYPE mix_source_navigations_total counter\n")
		snaps := make(map[string]struct {
			navs, msgs, bytes int64
		}, len(names))
		for _, name := range names {
			c := s.cfg.SourceCounters[name].Snapshot()
			snaps[name] = struct{ navs, msgs, bytes int64 }{c.Navigations(), c.Msgs, c.Bytes}
			fmt.Fprintf(w, "mix_source_navigations_total{source=%q} %d\n", name, snaps[name].navs)
		}
		fmt.Fprintf(w, "# HELP mix_source_lxp_msgs_total LXP protocol messages exchanged with a source\n")
		fmt.Fprintf(w, "# TYPE mix_source_lxp_msgs_total counter\n")
		for _, name := range names {
			fmt.Fprintf(w, "mix_source_lxp_msgs_total{source=%q} %d\n", name, snaps[name].msgs)
		}
		fmt.Fprintf(w, "# HELP mix_source_lxp_bytes_total LXP payload bytes exchanged with a source\n")
		fmt.Fprintf(w, "# TYPE mix_source_lxp_bytes_total counter\n")
		for _, name := range names {
			fmt.Fprintf(w, "mix_source_lxp_bytes_total{source=%q} %d\n", name, snaps[name].bytes)
		}
	}

	if st.Cache != nil {
		gauge("mix_region_cache_generation", "region cache invalidation epoch", int64(st.Cache.Generation))
		gauge("mix_region_cache_entries", "live region cache entries", int64(st.Cache.Entries))
		gauge("mix_region_cache_bytes", "approximate bytes retained by the region cache", st.Cache.Bytes)
		counter("mix_region_cache_hits_total", "navigations answered from the shared region cache", st.Cache.Hits)
		counter("mix_region_cache_misses_total", "navigations that drove a lazy engine", st.Cache.Misses)
		counter("mix_region_cache_bytes_saved_total", "label bytes served from the region cache", st.Cache.BytesSaved)
		counter("mix_region_cache_evictions_total", "region cache entries dropped by budget or invalidation", st.Cache.Evictions)
		counter("mix_region_cache_semantic_hits_total", "queries answered from a subsuming cached plan's region", st.Cache.SemanticHits)
		counter("mix_region_cache_semantic_misses_total", "queries that found no usable superset plan", st.Cache.SemanticMisses)
		counter("mix_region_cache_semantic_candidates_total", "candidate superset plans examined by the containment checker", st.Cache.SemanticCandidates)
		counter("mix_region_cache_semantic_incomplete_skips_total", "candidate plans skipped because their region was not fully explored (before the containment check when the node has no remote tier)", st.Cache.SemanticIncompleteSkips)
		gauge("mix_region_cache_interned_bytes", "key-string vocabulary retained by the cache interner", st.Cache.InternedBytes)
	}
	if st.Cluster != nil {
		gauge("mix_cluster_members", "fleet members on the consistent-hash ring", st.Cluster.Members)
		gauge("mix_cluster_peers_up", "peers currently believed alive", st.Cluster.PeersUp)
		gauge("mix_cluster_peers_down", "peers currently marked down", st.Cluster.PeersDown)
		counter("mix_cluster_owned_local_total", "opens served locally because this node owns the key", st.Cluster.OwnedLocal)
		counter("mix_cluster_proxied_total", "commands forwarded to an owner node", st.Cluster.Proxied)
		counter("mix_cluster_degraded_total", "sessions served locally because their owner was down", st.Cluster.Degraded)
		counter("mix_cluster_l2_hits_total", "peer region fetches answered with a region (entry fills and semantic asks, complete or not)", st.Cluster.L2Hits)
		counter("mix_cluster_l2_misses_total", "peer region fetches that found nothing", st.Cluster.L2Misses)
		counter("mix_cluster_l2_serves_total", "peer region_get requests answered with a region", st.Cluster.L2Serves)
		counter("mix_cluster_l2_fills_total", "peer region_put regions merged into the local cache", st.Cluster.L2Fills)
		counter("mix_cluster_invalidations_sent_total", "invalidation broadcasts fanned out to peers", st.Cluster.InvalSent)
		counter("mix_cluster_invalidations_recv_total", "invalidation broadcasts applied from peers", st.Cluster.InvalRecv)
		counter("mix_cluster_semantic_local_total", "routed opens served locally because their entry was complete once resolved (exact L2 fill or subsuming region)", st.Cluster.SemanticLocal)
	}
	if s.cfg.Trace {
		counter("mix_slow_navigations_total", "traced root spans at or over the slow-navigation threshold", s.flight.Total())
	}
	counter("mix_engine_pool_created_total", "source-epoch catalogs built by the mediator factory", st.Pool.Created)
	counter("mix_engine_pool_reused_total", "opens served by an existing source-epoch catalog", st.Pool.Reused)

	fpComputed, fpHits := xmltree.FingerprintStats()
	counter("mix_fp_computed_total", "structural fingerprints computed", fpComputed)
	counter("mix_fp_cache_hits_total", "fingerprint requests served from the per-tree memo", fpHits)

	dfaHits, dfaMisses, dfaStates := pathexpr.DFAStats()
	counter("mix_dfa_cache_hits_total", "path-DFA steps served from a cached label-class transition", dfaHits)
	counter("mix_dfa_cache_misses_total", "path-DFA label-class transitions built from NFA subset construction, at most one per state and class", dfaMisses)
	gauge("mix_dfa_states", "materialized lazy-DFA states across live matchers", dfaStates)

	wg, wn := wirejson.BufferPoolStats()
	counter("mix_wire_buffer_gets_total", "VXDP and LXP frame-buffer pool fetches", wg)
	counter("mix_wire_buffer_allocs_total", "VXDP and LXP frame-buffer pool fetches that allocated", wn)

	mem := telemetry.ReadMemStats()
	counter("mix_heap_alloc_bytes_total", "cumulative heap bytes allocated", int64(mem.AllocBytes))
	counter("mix_heap_alloc_objects_total", "cumulative heap objects allocated", int64(mem.AllocObjects))
	gauge("mix_heap_live_bytes", "bytes of live heap objects", int64(mem.HeapBytes))
	counter("mix_gc_cycles_total", "completed GC cycles", int64(mem.GCCycles))
	counter("mix_gc_pause_ns_total", "estimated total stop-the-world GC pause", int64(mem.GCPauseNs))

	telemetry.WritePrometheus(w, "mix_command_duration_seconds",
		"wire command service latency by op", "op", s.cmdHist)
	telemetry.WritePrometheus(w, "mix_operator_duration_seconds",
		"per-operator pull latency (populated when tracing is on)", "op", s.opHist)
	telemetry.WritePrometheus(w, "mix_cluster_route_duration_seconds",
		"routed open latency by ring decision", "mode", s.routeHist)
}
