package main

import (
	"encoding/json"
	"fmt"
)

// metricDef is one row of the metric catalogue: README.md's tables and
// BENCHMARK.json are checked against it (catalogue_test.go).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	layer              string  // emitting layer (module name)
	question           string  // what a reader learns from it
}

// endToEnd are the gated metrics: client-side clocks, tracing off, each
// the median of the measured rounds. bound is the share of the parent's
// median by which a later change may worsen it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "bench", "How long until the system is booted, oracle-checked and warm? Work moved into set-up shows here."},
	{"cmds_per_s", "1/s", "higher", 0.25, "vxdp", "How many navigation commands per second do two closed-loop clients complete?"},
	{"cmd_p50_us", "us", "lower", 0.25, "vxdp", "What does a client typically wait for one navigation command?"},
	{"first_answer_p50_us", "us", "lower", 0.25, "server", "How long from sending open to reading the first child's label - the paper's lazy-evaluation promise?"},
	{"alloc_bytes_per_cmd", "B", "lower", 0.15, "runtime", "How much does the process allocate per command? Speed bought with memory shows here."},
}

// perLayer are the ungated metrics of single layers. Times come from
// the layer pass, counts from counter deltas over one traced round,
// client-side distributions from one untraced round.
var perLayer = []metricDef{
	{name: "vxdp.encode_ns_per_frame", unit: "ns", better: "lower", layer: "vxdp", question: "What does WriteFrame cost for a navigation frame?"},
	{name: "vxdp.decode_ns_per_frame", unit: "ns", better: "lower", layer: "vxdp", question: "What does ReadFrame cost for a navigation frame?"},
	{name: "vxdp.allocs_per_frame", unit: "count", better: "lower", layer: "vxdp", question: "How many heap objects does the codec allocate per frame?"},
	{name: "vxdp.bytes_per_cmd", unit: "B", better: "lower", layer: "vxdp", question: "How many bytes cross the client connection per command, both ways?"},
	{name: "vxdp.ping_rtt_us", unit: "us", better: "lower", layer: "vxdp", question: "What is the floor of a command: codec, session loop and loopback, no resolver?"},
	{name: "vxdp.cmd_p95_us", unit: "us", better: "lower", layer: "vxdp", question: "How slow are the slow navigation commands? (Demoted from end-to-end: it spread up to 25 % between identical runs.)"},
	{name: "vxdp.cmd_p99_us", unit: "us", better: "lower", layer: "vxdp", question: "How long is the tail of a command? (Too noisy on a shared box to gate.)"},
	{name: "vxdp.round_trips_per_session", unit: "count", better: "lower", layer: "vxdp", question: "How many request frames does a session send?"},

	{name: "server.open_p50_us", unit: "us", better: "lower", layer: "server", question: "What does open cost: engine acquire, compile, routing?"},
	{name: "server.session_p50_ms", unit: "ms", better: "lower", layer: "server", question: "How long does a whole session last, dial to close?"},
	{name: "server.sessions_per_s", unit: "1/s", better: "higher", layer: "server", question: "How many sessions per second complete?"},
	{name: "server.pool_reuse_ratio", unit: "ratio", better: "higher", layer: "server", question: "How often does a session get a pooled engine instead of a factory build?"},
	{name: "server.warm_cmd_minus_ping_us", unit: "us", better: "lower", layer: "server", question: "What do handle table, dispatch and a cache read add on top of a ping?"},

	{name: "regioncache.hit_nav_ns", unit: "ns", better: "lower", layer: "regioncache", question: "What does a navigation answered from a cached region cost?"},
	{name: "regioncache.fill_nav_ns", unit: "ns", better: "lower", layer: "regioncache", question: "What does a navigation cost that misses and populates the cache?"},
	{name: "regioncache.exact_hit_ratio", unit: "ratio", better: "higher", layer: "regioncache", question: "What share of cache-visible navigations never reached an engine?"},
	{name: "regioncache.evictions", unit: "count", better: "lower", layer: "regioncache", question: "How many entries did the byte budget evict in the round?"},
	{name: "regioncache.bytes", unit: "B", better: "lower", layer: "regioncache", question: "How full is the cache at the end of the round?"},
	{name: "regioncache.export_ns_per_node", unit: "ns", better: "lower", layer: "regioncache", question: "What does Entry.Export cost per region node (L2 serve, flush)?"},
	{name: "regioncache.merge_ns_per_node", unit: "ns", better: "lower", layer: "regioncache", question: "What does Entry.Merge cost per region node (L2 fill, absorb)?"},
	{name: "regioncache.semantic_lookup_us", unit: "us", better: "lower", layer: "regioncache", question: "What does answering a subsumed query from a complete superset cost?"},
	{name: "regioncache.semantic_hits", unit: "count", better: "higher", layer: "regioncache", question: "How many opens did the semantic tier answer in the round?"},
	{name: "resolver.exact_share", unit: "ratio", better: "higher", layer: "regioncache", question: "What share of sessions opened a fingerprint the fleet had seen, served from L1?"},
	{name: "resolver.l2_share", unit: "ratio", better: "higher", layer: "regioncache", question: "What share of sessions had their entry filled from a peer?"},
	{name: "resolver.semantic_share", unit: "ratio", better: "higher", layer: "regioncache", question: "What share of sessions was answered from a subsuming view?"},
	{name: "resolver.speculative_share", unit: "ratio", better: "higher", layer: "regioncache", question: "What share of region visits landed on a speculatively warmed region?"},
	{name: "resolver.computed_share", unit: "ratio", better: "lower", layer: "regioncache", question: "What share of sessions had to be computed from the sources?"},

	{name: "mediator.query_us", unit: "us", better: "lower", layer: "mediator", question: "What do parse, translate, rewrite and compile cost per open?"},
	{name: "xmas.parse_us", unit: "us", better: "lower", layer: "xmas", question: "What does parsing the query text cost?"},
	{name: "algebra.contains_us", unit: "us", better: "lower", layer: "algebra", question: "What does one containment check cost?"},

	{name: "core.nav_ns", unit: "ns", better: "lower", layer: "core", question: "What does a client navigation on an uncached join+groupBy answer cost?"},
	{name: "core.src_navs_per_cmd", unit: "ratio", better: "lower", layer: "core", question: "How many navigations on in-memory sources does a client command induce - the paper's currency?"},
	{name: "core.first_answer_us", unit: "us", better: "lower", layer: "core", question: "How long does the lazy engine take from compile to the first child's label?"},
	{name: "core.bindings_per_pull", unit: "ratio", better: "higher", layer: "core", question: "How full are the batches the operators move?"},
	{name: "eager.materialize_ms", unit: "ms", better: "lower", layer: "eager", question: "What would materializing the whole answer first cost - the baseline the lazy first answer beats?"},

	{name: "buffer.nav_ns", unit: "ns", better: "lower", layer: "buffer", question: "What does a navigation on a buffered LXP source cost, fills included?"},
	{name: "buffer.fills_per_cmd", unit: "ratio", better: "lower", layer: "buffer", question: "How many holes are filled per client command?"},
	{name: "buffer.round_trips_per_cmd", unit: "ratio", better: "lower", layer: "buffer", question: "How many source round trips does a client command pay?"},
	{name: "buffer.demand_fill_share", unit: "ratio", better: "lower", layer: "buffer", question: "What share of fills did a navigation have to wait for?"},

	{name: "lxp.fill_rtt_us", unit: "us", better: "lower", layer: "lxp", question: "What does one fill cost over loopback with no injected delay?"},
	{name: "lxp.bytes_per_fill", unit: "B", better: "lower", layer: "lxp", question: "How large is a fill on the wire?"},
	{name: "lxp.holes_per_round_trip", unit: "ratio", better: "higher", layer: "lxp", question: "How many holes does batching put into one round trip?"},

	{name: "wrapper.relational_fill_us", unit: "us", better: "lower", layer: "wrapper", question: "What does the relational wrapper need for a 10-row fill?"},
	{name: "wrapper.web_fill_us", unit: "us", better: "lower", layer: "wrapper", question: "What does the web wrapper need for a page?"},
	{name: "wrapper.xml_fill_us", unit: "us", better: "lower", layer: "wrapper", question: "What does the XML wrapper need for a chunk?"},
	{name: "source.navs_per_cmd", unit: "ratio", better: "lower", layer: "wrapper", question: "How many requests of any kind reach any source per client command? About 0 when the caches do their job."},
	{name: "source.fills_per_cmd", unit: "ratio", better: "lower", layer: "wrapper", question: "How many LXP fills reach the wrappers per client command?"},

	{name: "cluster.ring_owner_ns", unit: "ns", better: "lower", layer: "cluster", question: "What does one ring lookup cost?"},
	{name: "cluster.proxied_share", unit: "ratio", better: "lower", layer: "cluster", question: "What share of client frames was forwarded to an owner?"},
	{name: "cluster.proxy_overhead_us", unit: "us", better: "lower", layer: "cluster", question: "How much slower is a proxied warm command than an owned one (p50 - p50)?"},
	{name: "cluster.l2_hit_ratio", unit: "ratio", better: "higher", layer: "cluster", question: "How often does a peer fetch find the region?"},
	{name: "cluster.region_get_us", unit: "us", better: "lower", layer: "cluster", question: "What does fetching a warm region from a peer cost?"},

	{name: "predict.observe_ns", unit: "ns", better: "lower", layer: "predict", question: "What does recording one region transition cost?"},
	{name: "predict.predict_ns", unit: "ns", better: "lower", layer: "predict", question: "What does one prediction cost?"},
	{name: "prefetch.issued", unit: "count", better: "lower", layer: "server", question: "How many speculative drains did the round start?"},
	{name: "prefetch.hit_ratio", unit: "ratio", better: "higher", layer: "server", question: "What share of drains warmed the region the client then visited?"},
	{name: "prefetch.wasted_ratio", unit: "ratio", better: "lower", layer: "server", question: "What share of drains warmed a region the client did not visit?"},
	{name: "prefetch.spec_navs_per_cmd", unit: "ratio", better: "lower", layer: "server", question: "How many speculative navigations ride on each client command?"},

	{name: "xmltree.marshal_ns_per_node", unit: "ns", better: "lower", layer: "xmltree", question: "What does serializing a tree cost per node?"},
	{name: "xmltree.fingerprint_ns_per_node", unit: "ns", better: "lower", layer: "xmltree", question: "What does fingerprinting a tree cost per node?"},

	{name: "runtime.cpu_us_per_cmd", unit: "us", better: "lower", layer: "runtime", question: "How much CPU (user + system, clients and servers) does a command burn?"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", layer: "runtime", question: "How long did the collector stop the world during the round?"},
	{name: "runtime.peak_heap_mb", unit: "MB", better: "lower", layer: "runtime", question: "How much heap has the process obtained from the OS?"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", layer: "bench", question: "How much slower is the traced round than the untraced one?"},
}

// printBenchmarkJSON renders the catalogue and the workloads as the
// BENCHMARK.json the repository's root holds.
func printBenchmarkJSON() {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type ungated struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	file := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []gated    `json:"end_to_end"`
		PerLayer   []ungated  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, sp := range specs {
		file.Workloads = append(file.Workloads, workload{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, gated{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		file.PerLayer = append(file.PerLayer, ungated{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(out))
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's output object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report fills in the catalogue's units; a metric the catalogue does
// not know is a bug.
func report(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("bench: metric " + d.name + " was not measured")
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out
}
