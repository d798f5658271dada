// Package vxdp implements VXDP, the Virtual XML Document Protocol: the
// client↔mediator wire protocol that carries the DOM-VXD command set of
// Section 2 (root, down, right, fetch, select σ) across a network, so a
// client can navigate a *remote* virtual answer document exactly as it
// navigates a local one (Fig. 1's client/mediator boundary).
//
// A VXDP conversation is sessionful: the client opens a view by sending
// its XMAS query text, the server compiles it against its configured
// sources and view catalogue, and subsequent navigation commands are
// answered from the session's private lazy-mediator tree. Node
// identifiers never cross the wire in their native (Skolem) form;
// instead the server issues per-session uint64 handles, so the protocol
// is independent of how a particular engine encodes association
// information.
//
// # Message grammar
//
// Every message is one frame: a 4-byte big-endian length prefix
// followed by a JSON object of at most MaxFrame bytes. Requests are
//
//	{"op":"open","query":Q}          compile XMAS query Q, open the view
//	{"op":"root"}                    → handle of the answer root
//	{"op":"down","id":H}             → handle of H's first child, or ⊥
//	{"op":"right","id":H}            → handle of H's right sibling, or ⊥
//	{"op":"fetch","id":H}            → label of H
//	{"op":"select","id":H,           → first sibling (from H itself when
//	 "label":L,"self":B}               "self") labeled L, or ⊥
//	{"op":"stats"}                   → server introspection snapshot
//	{"op":"trace"}                   → spans recorded since the last trace
//	{"op":"slow"}                    → the node's slow-navigation ring
//	{"op":"close"}                   end the session
//
// Any request may additionally carry "trace_ctx", a fleet trace context
// (see trace.Context): the server then parents the spans behind the
// command under the caller's span and returns them in the response's
// "spans" block, so one navigation that hops across a mediator fleet
// stitches into a single forest. Untraced sessions never carry either
// field — they cost zero bytes and zero allocations.
//
// Cluster peers (mixd -cluster) speak four more ops on ordinary
// sessions — the L2 region protocol and the health probe:
//
//	{"op":"ping"}                    → ok + the node's cache generation
//	{"op":"region_get","region":K}   → explored region under key K, or ⊥
//	{"op":"region_put","region":K,"tree":R}   merge region R into K
//	{"op":"invalidate","gen":G}      raise the cache generation to G
//
// A region R is regioncache.Region: window entries (below) for a whole
// explored region, with "u":true on a node whose label is unknown.
//
// and responses are
//
//	{"ok":true,"id":H}               a node handle
//	{"ok":true,"id":H,"win":[W…]}    a node handle and a read-ahead window
//	{"ok":false}                     ⊥ (no such child/sibling)
//	{"ok":true,"label":L}            a fetch result
//	{"stats":{…}}                    a Stats snapshot
//	{"trace":[S…]}                   a span forest (see internal/trace)
//	{"error":MSG}                    command failed
//
// # Read-ahead windows
//
// When a root/down/right/select command lands on a node whose subtree
// the server has already explored in full (its label and every child
// list under it known: the subtree is closed), the response may carry
// a window: the landed node, its subtree, then its right siblings and
// their subtrees, in document order, as entries
//
//	{"l":L,"d":D,"r":R}              label, first child, right sibling
//
// where D and R are indexes into the same window, -1 means ⊥ and -2
// means "not in this window, ask the server". A window holds closed
// subtrees only, on any view: it ends before the first right sibling
// that is not closed, at the end of a sibling list the server has not
// seen end (the last node's R is then -2, though no sibling may
// exist), or where the byte bound runs out. Node i of a window has
// handle H+i, so a client answers later d/r/f/select commands on those
// nodes from the window, and names any of them in a frame when the
// window cannot decide one. A window never costs the server source
// work, and clients that ignore "win" see the protocol unchanged.
package vxdp

import (
	"fmt"
	"io"

	"mix/internal/regioncache"
	"mix/internal/trace"
	"mix/internal/wirejson"
)

// MaxFrame bounds a single VXDP frame (requests carry at most a query
// text; responses at most a label and a window). Length prefixes
// beyond the cap are rejected before any allocation, so a hostile
// header cannot balloon memory.
const MaxFrame = 1 << 20

// FrameBuffer is the size of the bufio buffers both ends of a session
// read and write frames through. A frame that fits is decoded in place.
const FrameBuffer = 4096

// WindowBytes bounds the encoded size of a response's window, so that a
// windowed navigation frame — length prefix, ok, a 20-digit id, the
// "win" key and brackets, well under 64 bytes together — fits
// FrameBuffer.
const WindowBytes = FrameBuffer - 64

// Link values of a window entry besides a window index.
const (
	WinNone = regioncache.WindowNone // no such node (⊥)
	WinOut  = regioncache.WindowOut  // the node exists but is not in this window
)

// WinNode is one entry of a read-ahead window (Response.Win): a node's
// label and the window indexes of its first child and right sibling.
type WinNode struct {
	Label string `json:"l"`
	Down  int32  `json:"d"`
	Right int32  `json:"r"`

	// c and h bind a node a Client absorbed to that client and the
	// node's handle, so &window[i] is the node's nav.ID and answering
	// from a window allocates nothing. Neither crosses the wire.
	c *Client
	h uint64
}

// WinNodeBytes bounds the encoded size of one window entry with its
// separator, for WindowBytes: a window has fewer than 10⁴ entries, and
// no byte of a label encodes to more than six (\u00XX, \ufffd).
func WinNodeBytes(label string) int {
	n := len(label)
	if !wirejson.Safe(label) {
		n *= 6
	}
	return n + len(`{"l":"","d":-9999,"r":-9999},`)
}

// Protocol operation names.
const (
	OpOpen   = "open"
	OpRoot   = "root"
	OpDown   = "down"
	OpRight  = "right"
	OpFetch  = "fetch"
	OpSelect = "select"
	OpStats  = "stats"
	OpTrace  = "trace"
	OpSlow   = "slow"
	OpClose  = "close"

	// Cluster operations (mixd -cluster; see internal/cluster). ping is
	// the peer health probe; region_get/region_put move explored regions
	// between the nodes' caches (the L2 tier); invalidate broadcasts a
	// generation bump so every node's cache lands on the same epoch.
	OpPing       = "ping"
	OpRegionGet  = "region_get"
	OpRegionPut  = "region_put"
	OpInvalidate = "invalidate"
)

// Cmd is one navigation command.
type Cmd struct {
	Op string `json:"op"`
	// ID is a node handle previously issued by the server (root needs
	// none).
	ID uint64 `json:"id,omitempty"`
	// Label and Self parameterize select: advance to the first sibling
	// labeled Label, starting from the node itself when Self is true.
	Label string `json:"label,omitempty"`
	Self  bool   `json:"self,omitempty"`
}

// RegionKey identifies one cached region on the wire: the full
// regioncache key, generation included, so a peer can only ever answer
// with data from the exact epoch the asker is pinned to.
type RegionKey struct {
	Gen         uint64 `json:"gen"`
	Registry    uint64 `json:"reg"`
	Name        string `json:"name"`
	Fingerprint string `json:"fp"`
}

// WireKey renders a region-cache key for the wire.
func WireKey(k regioncache.Key) RegionKey {
	return RegionKey{Gen: k.Generation, Registry: k.Registry, Name: k.Name, Fingerprint: k.Fingerprint}
}

// CacheKey converts the wire key back to the region-cache key it names.
func (k RegionKey) CacheKey() regioncache.Key {
	return regioncache.Key{Generation: k.Gen, Registry: k.Registry, Name: k.Name, Fingerprint: k.Fingerprint}
}

// Request is a client→server frame.
type Request struct {
	Cmd
	Query string `json:"query,omitempty"` // open
	// Region keys a region_get/region_put; Tree carries the region_put
	// payload (the asker's explored region, merged into the owner's L1).
	Region *RegionKey          `json:"region,omitempty"`
	Tree   *regioncache.Region `json:"tree,omitempty"`
	// Gen is the target generation of an invalidate broadcast.
	Gen uint64 `json:"gen,omitempty"`
	// Proxied marks an open forwarded by a cluster peer: the receiver
	// must serve it locally, never re-proxy it, so a
	// misconfigured ring cannot bounce a session between nodes.
	Proxied bool `json:"proxied,omitempty"`
	// TraceCtx, when non-nil, asks the server to record the spans
	// behind this command under the caller's span and return them in
	// Response.Spans. Absent on untraced sessions (zero wire bytes).
	TraceCtx *trace.Context `json:"trace_ctx,omitempty"`
}

// NavResult is the outcome of one navigation command.
type NavResult struct {
	// OK reports whether the command produced a node (or, for fetch and
	// open, succeeded). OK=false with empty Err is ⊥.
	OK    bool   `json:"ok,omitempty"`
	ID    uint64 `json:"id,omitempty"`
	Label string `json:"label,omitempty"`
	Err   string `json:"error,omitempty"`
}

// Response is a server→client frame.
type Response struct {
	NavResult
	// Win is the read-ahead window of a root/down/right/select result
	// that landed on a closed subtree: node i has handle ID+i.
	Win   []WinNode     `json:"win,omitempty"`
	Stats *Stats        `json:"stats,omitempty"` // stats
	Trace []*trace.Span `json:"trace,omitempty"` // trace
	// Tree is a region_get hit: the owner's explored region for the
	// requested key (absent = miss).
	Tree *regioncache.Region `json:"tree,omitempty"`
	// Gen is the responder's cache generation (ping, invalidate).
	Gen uint64 `json:"gen,omitempty"`
	// Spans answers a request that carried a TraceCtx: the span forest
	// recorded while serving it, roots parented under the caller's
	// span. The caller stitches it into its own forest (trace.Stitch).
	Spans []*trace.Span `json:"spans,omitempty"`
	// Slow answers the slow command: the node's slow-navigation flight
	// ring, oldest first.
	Slow []SlowNav `json:"slow,omitempty"`
}

// SlowNav is one retained slow navigation on the wire: when it
// completed (wall clock), on which node, how slow it was, and the full
// (possibly stitched) span tree behind it.
type SlowNav struct {
	Seq    uint64      `json:"seq"`
	UnixMs int64       `json:"unix_ms"`
	Node   string      `json:"node,omitempty"`
	DurNs  int64       `json:"dur_ns"`
	Root   *trace.Span `json:"root"`
}

// Stats is the server introspection snapshot returned by the stats
// command (and by server.Server.Stats for in-process callers).
type Stats struct {
	SessionsActive  int64 `json:"sessions_active"`
	SessionsTotal   int64 `json:"sessions_total"`
	SessionsEvicted int64 `json:"sessions_evicted"` // idle/lifetime timeouts
	SessionsDenied  int64 `json:"sessions_denied"`  // over the connection limit
	Msgs            int64 `json:"msgs"`             // request frames served
	Navs            int64 `json:"navs"`             // navigation commands answered
	Down            int64 `json:"down"`
	Right           int64 `json:"right"`
	Fetch           int64 `json:"fetch"`
	Select          int64 `json:"select"`
	Root            int64 `json:"root"`
	// Session, present only in responses to the stats command, describes
	// the asking session itself.
	Session *SessionStats `json:"session,omitempty"`
	// Cache, present when the server runs a shared region cache,
	// reports cross-session cache effectiveness.
	Cache *CacheStats `json:"cache,omitempty"`
	// Pool reports how opens were served by source-epoch catalogs; a
	// server always sets it.
	Pool *PoolStats `json:"pool,omitempty"`
	// Batch, present once the operator pipeline has logged any binding,
	// carries that count (core.LoggedBindings) in both fields.
	Batch *BatchStats `json:"batch,omitempty"`
	// Cluster, present when the server runs as a cluster node, reports
	// ring routing, proxying, and L2 region-cache traffic.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Prefetch is never filled. It stays only because bench/ still
	// reads it; it goes with ROADMAP item 1's bench edit.
	Prefetch *PrefetchStats `json:"prefetch,omitempty"`
}

// PrefetchStats is the wire form of counters no server fills. It stays
// only because bench/ still reads it; it goes with ROADMAP item 1's
// bench edit.
type PrefetchStats struct {
	Issued   int64 `json:"issued"`
	Hits     int64 `json:"hits"`
	Wasted   int64 `json:"wasted"`
	Navs     int64 `json:"navs"`
	Inflight int64 `json:"inflight,omitempty"`
}

// ClusterStats mirrors cluster.Stats on the wire: how sessions were
// routed across the ring, how the peer fleet is doing, and how the L2
// region tier performed.
type ClusterStats struct {
	Self       string `json:"self"`
	Members    int64  `json:"members"`
	PeersUp    int64  `json:"peers_up"`
	PeersDown  int64  `json:"peers_down"`
	OwnedLocal int64  `json:"owned_local"` // opens whose key this node owns
	Proxied    int64  `json:"proxied"`     // commands forwarded to an owner
	Degraded   int64  `json:"degraded"`    // opens served locally because the owner was down
	L2Hits     int64  `json:"l2_hits"`     // peer fetches answered with a region, complete or not
	L2Misses   int64  `json:"l2_misses"`   // peer fetches that found nothing
	L2Serves   int64  `json:"l2_serves"`   // region_get requests answered with a region
	L2Fills    int64  `json:"l2_fills"`    // region_put regions merged from peers
	InvalSent  int64  `json:"inval_sent"`  // invalidation broadcasts fanned out
	InvalRecv  int64  `json:"inval_recv"`  // invalidation broadcasts applied
	// SemanticLocal counts routed opens served on this node without a
	// proxy hop because the query's entry was fully explored once
	// resolved (mediator.Result.SemanticWarm): by an exact L2 fill from
	// the owner as well as by a subsuming region. It is not a count
	// of semantic hits — CacheStats.SemanticHits is.
	SemanticLocal int64 `json:"semantic_local"` // routed opens served locally from a complete entry
	// Routes breaks down session-routing latency by decision mode
	// (proxy / local), mirroring the
	// mix_cluster_route_duration_seconds histograms.
	Routes []RouteLatency `json:"routes,omitempty"`
}

// RouteLatency summarizes one routing mode's open-handling latency.
type RouteLatency struct {
	Mode  string `json:"mode"`
	Count int64  `json:"count"`
	P50Us int64  `json:"p50_us"`
	P99Us int64  `json:"p99_us"`
}

// BatchStats reports the bindings the operator pipeline logged at its
// replay points. The pipeline moves one binding per pull, so Batches
// and Bindings carry the same count; both stay on the wire because the
// benchmark harness derives core.bindings_per_pull from them.
type BatchStats struct {
	Batches  int64 `json:"batches"`
	Bindings int64 `json:"bindings"`
}

// SourceStats describes one LXP-buffered source of the asking session:
// its fill/round-trip accounting and the health of its prefetcher.
// Batched fills make RoundTrips smaller than Fills; a non-empty
// LastPrefetchError means background prefetching has been failing even
// though demand navigation may still succeed.
type SourceStats struct {
	Name              string `json:"name"`
	Fills             int64  `json:"fills"`
	DemandFills       int64  `json:"demand_fills"`
	PrefetchFills     int64  `json:"prefetch_fills"`
	RoundTrips        int64  `json:"round_trips"`
	BatchedFills      int64  `json:"batched_fills"`
	PendingHoles      int64  `json:"pending_holes"`
	PrefetchErrors    int64  `json:"prefetch_errors"`
	LastPrefetchError string `json:"last_prefetch_error,omitempty"`
}

// CacheStats is the server's region-cache totals on the wire: the
// cache's own snapshot (regioncache.Stats), JSON tags and all.
type CacheStats = regioncache.Stats

// PoolStats reports how opens were served by the server's catalogs,
// one mediator per source epoch.
type PoolStats struct {
	Created int64 `json:"created"` // catalogs the factory built
	Reused  int64 `json:"reused"`  // opens served by an existing catalog
}

// SessionStats describes one session from the server's point of view:
// how many frames it has sent and how its navigations break down. Navs
// counts client-boundary commands (what the session asked of its
// virtual answer), not the source fan-out behind them.
type SessionStats struct {
	ID       uint64 `json:"id"`
	UptimeMs int64  `json:"uptime_ms"`
	Msgs     int64  `json:"msgs"`
	Opens    int64  `json:"opens"`
	Navs     int64  `json:"navs"`
	Down     int64  `json:"down"`
	Right    int64  `json:"right"`
	Fetch    int64  `json:"fetch"`
	Select   int64  `json:"select"`
	Root     int64  `json:"root"`
	// Sources, present when the session's mediator opened LXP buffers,
	// reports their per-source fill accounting (sorted by name). With a
	// region cache, engines of one generation share each source's buffer
	// and only the engine that opened it reports it, so a session on a
	// joining engine lists no such source and sums over sessions count
	// each fill once (see mediator.BufferStats).
	Sources []SourceStats `json:"sources,omitempty"`
}

func (s Stats) String() string {
	return fmt.Sprintf("sessions: active=%d total=%d evicted=%d denied=%d | msgs=%d navs=%d (d=%d r=%d f=%d sel=%d root=%d)",
		s.SessionsActive, s.SessionsTotal, s.SessionsEvicted, s.SessionsDenied,
		s.Msgs, s.Navs, s.Down, s.Right, s.Fetch, s.Select, s.Root)
}

// WriteFrame writes v as one length-prefixed JSON frame, assembled in a
// pooled buffer and sent in a single Write. A navigation Request or
// Response (value or pointer) takes the lean encoder (see codec.go);
// everything else is encoding/json. The bytes are the same either way.
func WriteFrame(w io.Writer, v any) error {
	f := wirejson.GetFrame()
	defer f.Release()
	var lean []byte
	switch v := v.(type) {
	case Request:
		if navRequest(&v) {
			lean = appendCmd(f.AvailableBuffer(), &v.Cmd)
		}
	case *Request:
		if v != nil && navRequest(v) {
			lean = appendCmd(f.AvailableBuffer(), &v.Cmd)
		}
	case Response:
		if navResponse(&v) {
			lean = appendNavResponse(f.AvailableBuffer(), &v)
		}
	case *Response:
		if v != nil && navResponse(v) {
			lean = appendNavResponse(f.AvailableBuffer(), v)
		}
	}
	if lean != nil {
		f.Write(lean)
	} else if err := f.EncodeJSON(v); err != nil {
		return err
	}
	return f.Send(w, MaxFrame)
}

// ReadFrame reads one length-prefixed JSON frame into v with exactly
// json.Unmarshal's semantics (a *Request or *Response navigation frame
// takes the lean decoder). Truncated, malformed, and oversized frames
// return errors; no input can panic. The frame is decoded where it
// lies in a *bufio.Reader's buffer, or else read into a recycled slice;
// v never aliases either.
func ReadFrame(r io.Reader, v any) error {
	return wirejson.ReadFrame(r, MaxFrame, func(p []byte) error { return decodeFrame(p, v) })
}
