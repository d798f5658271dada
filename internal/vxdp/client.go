package vxdp

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/trace"
)

// Client is the client-side endpoint of a VXDP session. It implements
// nav.Document, so everything that can navigate a local virtual answer
// — nav.Materialize, nav.ExploreFirst, the mediator.Element veneer, the
// whole test corpus — can navigate a remote one transparently. Safe for
// concurrent use (requests are serialized on the connection).
//
// Client deliberately does not implement nav.Selector: the wire select
// command matches a *label*, while nav.Predicate is an opaque function.
// nav.Select therefore falls back to an r/f scan over the wire (each
// hop one round trip) — precisely the navigational-complexity penalty
// Section 2 assigns to NC without select. Callers that do have a label
// predicate use SelectLabel (one round trip).
//
// Wherever a navigation lands on a subtree the server has explored in
// full, on any view, the result carries a read-ahead window (see the
// package documentation), and the client answers d/r/f/select — and
// root, after the first — from it wherever the window decides the
// command; a −2 link, and everything else, is one round trip as before.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	// fr holds the connection's pooled frame buffers; Close releases
	// them and sets fr to nil, which is how every call tells a closed
	// client (guarded by mu).
	fr *Frames

	// rec, when non-nil, makes the session fleet-traced: every
	// navigation opens a local span, injects its trace context into the
	// request, and stitches the spans the server returns under it (see
	// SetTracer). label overrides the span label (trace.ClientLabel
	// when empty).
	rec   *trace.Recorder
	label string

	// resp is the response every exchange decodes into (guarded by mu),
	// so a warm navigation allocates only the label it returns.
	resp Response

	// wins holds the read-ahead windows absorbed since the last clear, in
	// handle order; root is the answer root once a root response carried
	// a window (guarded by mu). Open and any error clear both: after
	// them a handle may name another node, or none.
	wins []window
	root nav.ID

	roundTrips atomic.Int64
}

// window is one absorbed read-ahead window: nodes[i] has handle first+i.
type window struct {
	first uint64
	nodes []WinNode
}

func (w *window) end() uint64 { return w.first + uint64(len(w.nodes)) }

// nodeID is the client-side nav.ID: the server's uint64 handle bound to
// the issuing client, so foreign IDs are detectable.
type nodeID struct {
	c *Client
	h uint64
}

// Dial connects to a VXDP server (cmd/mixd).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection. Its frame buffers come
// from the pool; Close returns them.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, fr: GetFrames(conn)}
}

// Close ends the session (best effort), closes the connection and
// returns the frame buffers to the pool. It is idempotent: a second
// Close, and every call after the first, returns net.ErrClosed without
// touching the connection or a buffer.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.fr == nil {
		c.mu.Unlock()
		return net.ErrClosed
	}
	_ = WriteFrame(c.fr.W, Request{Cmd: Cmd{Op: OpClose}})
	_ = c.fr.W.Flush()
	c.fr.Release()
	c.fr = nil
	c.clearWindows()
	c.mu.Unlock()
	return c.conn.Close()
}

// RoundTrips returns the number of request frames sent so far — the
// message-count measure the window experiments compare.
func (c *Client) RoundTrips() int64 { return c.roundTrips.Load() }

// ErrRemote marks errors the server reported in-band: the transport is
// healthy, the request itself failed. Cluster health accounting keys on
// this — errors.Is(err, ErrRemote) means the peer is alive.
var ErrRemote = errors.New("vxdp: remote error")

// SetTracer installs a recorder on the session: every subsequent traced
// command (navigations, region ops — not stats/trace/ping)
// opens a span in rec, rides the wire with its trace context, and gets
// the server-side fan-out stitched under it transparently. A nil rec
// turns tracing back off. The untraced path is untouched — no extra
// bytes on the wire, no allocations.
func (c *Client) SetTracer(rec *trace.Recorder) {
	c.mu.Lock()
	c.rec = rec
	c.mu.Unlock()
}

// SetTraceLabel overrides the label of the spans SetTracer records
// (trace.ClientLabel when empty). Cluster control links use it so peer
// traffic is distinguishable from client navigations.
func (c *Client) SetTraceLabel(label string) {
	c.mu.Lock()
	c.label = label
	c.mu.Unlock()
}

// tracedOp reports whether a command is worth a span on a traced
// session: the ops that do engine or cache work. Introspection
// (stats/trace/slow), the health probe, and close stay span-free.
func tracedOp(op string) bool {
	switch op {
	case OpOpen, OpRoot, OpDown, OpRight, OpFetch, OpSelect,
		OpRegionGet, OpRegionPut, OpInvalidate:
		return true
	}
	return false
}

func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTripLocked(req)
}

// roundTripLocked is roundTrip for callers that hold c.mu.
func (c *Client) roundTripLocked(req Request) (Response, error) {
	if c.fr == nil {
		return Response{}, net.ErrClosed
	}
	c.roundTrips.Add(1)
	if req.Op == OpOpen {
		c.clearWindows()
	}
	if c.rec == nil || !tracedOp(req.Op) {
		if err := c.exchange(&req); err != nil {
			c.clearWindows()
			return Response{}, err
		}
		return c.resp, nil
	}
	label := c.label
	if label == "" {
		label = trace.ClientLabel
	}
	sp, ctx := c.rec.BeginContext(label, req.Op)
	if req.TraceCtx == nil {
		req.TraceCtx = &ctx
	}
	err := c.exchange(&req)
	if err == nil && len(c.resp.Spans) > 0 {
		trace.Stitch(sp, c.resp.Spans)
		c.resp.Spans = nil
	}
	c.rec.End(sp)
	if err != nil {
		c.clearWindows()
		return Response{}, err
	}
	return c.resp, nil
}

// exchange performs one request/response cycle, decoding into c.resp.
// Callers hold c.mu.
func (c *Client) exchange(req *Request) error {
	if err := WriteRequest(c.fr.W, req); err != nil {
		return err
	}
	if err := c.fr.W.Flush(); err != nil {
		return err
	}
	if err := ReadResponse(c.fr.R, &c.resp); err != nil {
		return err
	}
	if c.resp.Err != "" {
		return fmt.Errorf("%w: %s", ErrRemote, c.resp.Err)
	}
	return nil
}

// Open compiles the XMAS query on the server and makes its virtual
// answer the session's document. Opening a second view in the same
// session replaces the first (all previously issued handles die).
// Against a cluster member the view may live on another node; the
// member proxies the session there, so the client never learns where.
func (c *Client) Open(query string) error {
	_, err := c.roundTrip(Request{Cmd: Cmd{Op: OpOpen}, Query: query})
	return err
}

// handle extracts the wire handle of an ID issued by this client.
func (c *Client) handle(p nav.ID) (uint64, error) {
	switch n := p.(type) {
	case nodeID:
		if n.c == c {
			return n.h, nil
		}
	case *WinNode:
		if n != nil && n.c == c {
			return n.h, nil
		}
	}
	return 0, fmt.Errorf("%w: %T", nav.ErrForeignID, p)
}

// --- read-ahead windows ---------------------------------------------------

// clearWindows forgets every window. Caller holds c.mu.
func (c *Client) clearWindows() {
	clear(c.wins)
	c.wins = c.wins[:0]
	c.root = nil
}

// landed converts a root/down/right/select response into the node it
// names (nil for ⊥), absorbing the window it carries: the window's
// slice becomes the client's, stamped with handles, so the absorbed
// window costs the client no allocation beyond its decoding. Caller
// holds c.mu.
func (c *Client) landed(resp *Response) nav.ID {
	if !resp.OK {
		return nil
	}
	win := resp.Win
	if len(win) == 0 || resp.ID > math.MaxUint64-uint64(len(win)) {
		return nodeID{c: c, h: resp.ID}
	}
	if n := len(c.wins); n > 0 && resp.ID < c.wins[n-1].end() {
		// Handles only grow within a view; a window that overlaps the last
		// one breaks the order lookups rely on, so start over from it.
		c.clearWindows()
	}
	for i := range win {
		win[i].c, win[i].h = c, resp.ID+uint64(i)
	}
	c.wins = append(c.wins, window{first: resp.ID, nodes: win})
	return &win[0]
}

// find returns the window holding handle h and h's index in it. Caller
// holds c.mu.
func (c *Client) find(h uint64) (*window, int, bool) {
	n := len(c.wins)
	if n == 0 {
		return nil, 0, false
	}
	k := n - 1 // most commands stay in the newest window
	if h < c.wins[k].first {
		k = sort.Search(n, func(j int) bool { return c.wins[j].first > h }) - 1
		if k < 0 {
			return nil, 0, false
		}
	}
	w := &c.wins[k]
	if h >= w.end() {
		return nil, 0, false
	}
	return w, int(h - w.first), true
}

// link follows a link of node i: (nil, true) is ⊥, (id, true) a node of
// the window, and ok=false means the window cannot decide. Only a link
// strictly forward inside the window counts as shipped, so no window,
// however hostile, can send a local walk back over a node.
func (w *window) link(i int, to int32) (id nav.ID, ok bool) {
	switch {
	case to == WinNone:
		return nil, true
	case int(to) > i && int(to) < len(w.nodes):
		return &w.nodes[to], true
	}
	return nil, false
}

// localSelect answers a select from node i when the window decides it.
// Every step moves strictly forward, so it ends within len(w.nodes)
// steps on any input.
func (w *window) localSelect(i int, label string, fromSelf bool) (nav.ID, bool) {
	if !fromSelf {
		next, ok := w.link(i, w.nodes[i].Right)
		if next == nil {
			return nil, ok
		}
		i = int(w.nodes[i].Right)
	}
	for w.nodes[i].Label != label {
		next, ok := w.link(i, w.nodes[i].Right)
		if next == nil {
			return nil, ok
		}
		i = int(w.nodes[i].Right)
	}
	return &w.nodes[i], true
}

// Root implements nav.Document. Once a root response has carried a
// window, later calls answer from it.
func (c *Client) Root() (nav.ID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.root != nil {
		return c.root, nil
	}
	resp, err := c.roundTripLocked(Request{Cmd: Cmd{Op: OpRoot}})
	if err != nil {
		return nil, err
	}
	id := c.landed(&resp)
	if _, ok := id.(*WinNode); ok {
		c.root = id
	}
	return id, nil
}

func (c *Client) navigate(op string, p nav.ID) (nav.ID, error) {
	h, err := c.handle(p)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, i, ok := c.find(h); ok {
		to := w.nodes[i].Down
		if op == OpRight {
			to = w.nodes[i].Right
		}
		if id, ok := w.link(i, to); ok {
			return id, nil
		}
	}
	resp, err := c.roundTripLocked(Request{Cmd: Cmd{Op: op, ID: h}})
	if err != nil {
		return nil, err
	}
	return c.landed(&resp), nil
}

// Down implements nav.Document.
func (c *Client) Down(p nav.ID) (nav.ID, error) { return c.navigate(OpDown, p) }

// Right implements nav.Document.
func (c *Client) Right(p nav.ID) (nav.ID, error) { return c.navigate(OpRight, p) }

// Fetch implements nav.Document.
func (c *Client) Fetch(p nav.ID) (string, error) {
	h, err := c.handle(p)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, i, ok := c.find(h); ok {
		return w.nodes[i].Label, nil
	}
	resp, err := c.roundTripLocked(Request{Cmd: Cmd{Op: OpFetch, ID: h}})
	if err != nil {
		return "", err
	}
	return resp.Label, nil
}

// SelectLabel issues a wire select: the first sibling of p (p itself
// when fromSelf) whose label is label, in one round trip unless a
// window decides it.
func (c *Client) SelectLabel(p nav.ID, label string, fromSelf bool) (nav.ID, error) {
	h, err := c.handle(p)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, i, ok := c.find(h); ok {
		if id, ok := w.localSelect(i, label, fromSelf); ok {
			return id, nil
		}
	}
	resp, err := c.roundTripLocked(Request{Cmd: Cmd{Op: OpSelect, ID: h, Label: label, Self: fromSelf}})
	if err != nil {
		return nil, err
	}
	return c.landed(&resp), nil
}

// Trace fetches the spans recorded for this session since the last
// Trace call: the server-side fan-out behind the navigations issued in
// between. Returns nil when the server has tracing disabled.
func (c *Client) Trace() ([]*trace.Span, error) {
	resp, err := c.roundTrip(Request{Cmd: Cmd{Op: OpTrace}})
	if err != nil {
		return nil, err
	}
	return resp.Trace, nil
}

// Ping probes the server: a liveness check that also returns the
// server's region-cache generation. It is the cluster health probe.
func (c *Client) Ping() (gen uint64, err error) {
	resp, err := c.roundTrip(Request{Cmd: Cmd{Op: OpPing}})
	if err != nil {
		return 0, err
	}
	return resp.Gen, nil
}

// RegionGet fetches the server's explored region under key (nil = the
// server knows nothing under that exact key).
func (c *Client) RegionGet(key RegionKey) (*regioncache.Region, error) {
	resp, err := c.roundTrip(Request{Cmd: Cmd{Op: OpRegionGet}, Region: &key})
	if err != nil {
		return nil, err
	}
	return resp.Tree, nil
}

// RegionPut merges an explored region into the server's cache under
// key. The server ignores puts for generations it has moved past.
func (c *Client) RegionPut(key RegionKey, tree *regioncache.Region) error {
	_, err := c.roundTrip(Request{Cmd: Cmd{Op: OpRegionPut}, Region: &key, Tree: tree})
	return err
}

// Invalidate asks the server to raise its region-cache generation to
// gen (a no-op when it is already there or past it) and returns the
// server's resulting generation.
func (c *Client) Invalidate(gen uint64) (uint64, error) {
	resp, err := c.roundTrip(Request{Cmd: Cmd{Op: OpInvalidate}, Gen: gen})
	if err != nil {
		return 0, err
	}
	return resp.Gen, nil
}

// Slow fetches the server's slow-navigation flight ring: the last
// retained root spans whose latency met the server's -slow-ms
// threshold, oldest first. Returns nil when the server has tracing
// disabled or nothing slow has been recorded yet.
func (c *Client) Slow() ([]SlowNav, error) {
	resp, err := c.roundTrip(Request{Cmd: Cmd{Op: OpSlow}})
	if err != nil {
		return nil, err
	}
	return resp.Slow, nil
}

// Stats fetches the server's introspection snapshot.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.roundTrip(Request{Cmd: Cmd{Op: OpStats}})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, errors.New("vxdp: stats response without stats")
	}
	return *resp.Stats, nil
}
