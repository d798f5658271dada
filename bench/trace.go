package main

import (
	"encoding/json"
	"net"
	"os"
	"sync/atomic"
	"time"

	"mix/internal/vxdp"
)

// span is one timed interval recorded by the benchmark's own code
// around a call into the system: a session, its dial / open /
// first_answer phases, one span per navigation command, and one span
// per layer-pass call (named by the metric it feeds). Parent is the
// enclosing span's ID (-1 for a root), so a reader computes a span's
// self time as its duration minus its children's.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload,omitempty"`
	Session  int    `json:"session,omitempty"`
	Op       string `json:"op,omitempty"`
	Persona  string `json:"persona,omitempty"`
	Class    string `json:"class,omitempty"`
	Node     int    `json:"node,omitempty"`
}

// tracer keeps spans in memory for the traced run. Each client appends
// to its own slice, so recording takes no lock; collect makes the IDs
// unique across clients.
type tracer struct {
	epoch    time.Time
	workload string
	layer    []span // layer-pass spans
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// add records a finished span; a span's ID is its 1-based position in
// its client's slice.
func (t *tracer) add(rec *clientRec, s span, start, end time.Time) {
	s.EndNs = int64(end.Sub(t.epoch))
	t.open(rec, s, start)
}

// open records a span whose end is not known yet and returns its ID.
func (t *tracer) open(rec *clientRec, s span, start time.Time) int {
	s.ID = len(rec.spans) + 1
	s.StartNs = int64(start.Sub(t.epoch))
	rec.spans = append(rec.spans, s)
	return s.ID
}

func (t *tracer) close(rec *clientRec, id int, end time.Time) {
	rec.spans[id-1].EndNs = int64(end.Sub(t.epoch))
}

// layerSpan records one layer-pass call.
func (t *tracer) layerSpan(metric string, start, end time.Time) {
	if t == nil {
		return
	}
	t.layer = append(t.layer, span{ID: len(t.layer) + 1, Parent: -1, Name: metric, Workload: t.workload,
		StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch))})
}

// traceFile is what -trace-out writes: the spans of the traced round,
// the layer-pass spans, and the counter deltas at the round boundaries.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Layer    []span             `json:"layer_pass"`
	Counters map[string]float64 `json:"counter_deltas"`
}

// collect gathers the clients' spans, making IDs unique across clients.
func (t *tracer) collect(recs []*clientRec) []span {
	var out []span
	for c, rec := range recs {
		for _, s := range rec.spans {
			s.ID = s.ID*len(recs) + c
			if s.Parent >= 0 {
				s.Parent = s.Parent*len(recs) + c
			}
			s.Workload = t.workload
			out = append(out, s)
		}
	}
	return out
}

func writeTrace(path string, files []traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(files); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countConn counts the bytes a client connection moves, for
// vxdp.bytes_per_cmd in traced rounds.
type countConn struct {
	net.Conn
	bytes atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// dial opens a client session; counted sessions go through a byte
// counting connection (nil otherwise).
func dial(addr string, counted bool) (*countConn, *vxdp.Client, error) {
	if !counted {
		c, err := vxdp.Dial(addr)
		return nil, c, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	cc := &countConn{Conn: conn}
	return cc, vxdp.NewClient(cc), nil
}

// counter names one server-side count the per-layer metrics are built
// from.
type counter int

const (
	cacheHits counter = iota
	cacheMisses
	evictions
	cacheBytes // a level, not a cumulative count
	semanticHits
	semanticLocal
	poolCreated
	poolReused
	proxied
	ownedLocal
	l2Hits
	l2Misses
	prefIssued
	prefHits
	prefWasted
	prefNavs
	batches
	bindings
	serverMsgs
	treeNavs // traced runs: navigations on in-memory sources
	lxpMsgs
	lxpFills
	lxpBytes
	bufFills // buf*: traced runs only
	bufDemand
	bufRoundTrips
	bufBatched
	numCounters
)

var counterNames = [numCounters]string{
	"cache_hits", "cache_misses", "cache_evictions", "cache_bytes", "semantic_hits", "semantic_local",
	"pool_created", "pool_reused", "proxied", "owned_local", "l2_hits", "l2_misses",
	"prefetch_issued", "prefetch_hits", "prefetch_wasted", "prefetch_navs", "batches", "bindings",
	"server_msgs", "tree_source_navs", "lxp_msgs", "lxp_fills", "lxp_bytes",
	"buffer_fills", "buffer_demand_fills", "buffer_round_trips", "buffer_batched_fills",
}

// counters is the sum of those counts over all nodes; deltas are taken
// at round boundaries.
type counters [numCounters]int64

// f reads one count as a float, for ratios.
func (c *counters) f(k counter) float64 { return float64(c[k]) }

func (f *fleet) counters() counters {
	var c counters
	for i, m := range f.members {
		st := m.srv.Stats()
		c[serverMsgs] += st.Msgs
		if st.Cache != nil {
			c[cacheHits] += st.Cache.Hits
			c[cacheMisses] += st.Cache.Misses
			c[evictions] += st.Cache.Evictions
			c[cacheBytes] += st.Cache.Bytes
			c[semanticHits] += st.Cache.SemanticHits
		}
		if st.Pool != nil {
			c[poolCreated] += st.Pool.Created
			c[poolReused] += st.Pool.Reused
		}
		if st.Cluster != nil {
			c[proxied] += st.Cluster.Proxied
			c[ownedLocal] += st.Cluster.OwnedLocal
			c[semanticLocal] += st.Cluster.SemanticLocal
			c[l2Hits] += st.Cluster.L2Hits
			c[l2Misses] += st.Cluster.L2Misses
		}
		if st.Prefetch != nil {
			c[prefIssued] += st.Prefetch.Issued
			c[prefHits] += st.Prefetch.Hits
			c[prefWasted] += st.Prefetch.Wasted
			c[prefNavs] += st.Prefetch.Navs
		}
		// The batch counters are process-wide, not per server.
		if i == 0 && st.Batch != nil {
			c[batches], c[bindings] = st.Batch.Batches, st.Batch.Bindings
		}
	}
	src := f.src
	c[treeNavs] = src.treeNavs.Navigations()
	for _, s := range src.lxps {
		c[lxpMsgs] += s.counting.Counters.Msgs.Load()
		c[lxpFills] += s.counting.Counters.Fills.Load()
		c[lxpBytes] += s.counting.Counters.Bytes.Load()
	}
	src.mu.Lock()
	for _, m := range src.meds {
		for _, bs := range m.BufferStats() {
			c[bufFills] += int64(bs.Fills)
			c[bufDemand] += int64(bs.DemandFills)
			c[bufRoundTrips] += int64(bs.RoundTrips)
			c[bufBatched] += int64(bs.BatchedFills)
		}
	}
	src.mu.Unlock()
	return c
}

// sub returns c − o for the cumulative counts; cacheBytes is a level
// and stays as it is in c.
func (c counters) sub(o counters) counters {
	d := c
	for k := range d {
		d[k] -= o[k]
	}
	d[cacheBytes] = c[cacheBytes]
	return d
}

// named renders the counts for the trace file.
func (c counters) named() map[string]float64 {
	out := make(map[string]float64, numCounters)
	for k, name := range counterNames {
		out[name] = float64(c[k])
	}
	return out
}
