package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"mix/internal/buffer"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/trace"
	"mix/internal/vxdp"
)

// traceLimit bounds the number of retained span roots per session, so a
// client that enables tracing but never fetches traces cannot grow the
// recorder without bound.
const traceLimit = 256

// session is one client connection: the currently open virtual answer
// document, compiled on the server's catalog of the moment, and the
// handle table mapping wire handles to the document's opaque node IDs.
// Handles are never reused; opening a new view invalidates all of them.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn
	born time.Time

	// nav counts this session's client-boundary navigations; msgs and
	// opens its frames and view opens. Read concurrently by Stats.
	nav   metrics.Counters
	msgs  atomic.Int64
	opens atomic.Int64

	cat     *mediator.Mediator // the catalog of the last open
	doc     nav.Document
	rec     *trace.Recorder // non-nil iff the server traces
	handles map[uint64]nav.ID
	nextH   uint64

	// scr is the window scratch, drawn from the server's pool at the
	// first window and returned when the session ends (see window.go).
	scr *winScratch

	// Read-ahead windows (see window.go): cached is the open view's
	// region-cache document, nil when the view has none (no windows);
	// wins records the handle range each shipped window reserved.
	cached *regioncache.Doc
	wins   []winRange

	// proxy, when non-nil, is the session's link to the cluster node
	// that owns the open view: every navigation is relayed there.
	// proxyQuery remembers the open so the view can be reopened locally
	// if the owner is lost mid-session.
	proxy      *proxyLink
	proxyQuery string
}

// run is the session loop: read a frame, dispatch, respond — until the
// client closes, a deadline evicts the session, or the server drains.
func (s *session) run() {
	defer s.srv.dropSession(s)
	defer s.conn.Close()
	r := bufio.NewReaderSize(s.conn, vxdp.FrameBuffer)
	w := bufio.NewWriterSize(s.conn, vxdp.FrameBuffer)
	// One request and one response serve every frame of the session.
	var (
		req  vxdp.Request
		resp vxdp.Response
	)
	for {
		s.arm()
		// Shutdown wakes a blocked reader with an immediate read deadline,
		// but a session that was mid-dispatch at that moment has just
		// re-armed over it: notice the drain here instead.
		if s.srv.drainingNow() {
			return
		}
		if err := vxdp.ReadRequest(r, &req); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !s.srv.drainingNow() {
				s.srv.evicted.Add(1)
				s.srv.log.Info("session evicted", "session", s.id, "reason", "timeout")
				// Best-effort eviction notice; the deadline already
				// passed, so give the write its own short grace.
				_ = s.conn.SetWriteDeadline(time.Now().Add(time.Second))
				_ = vxdp.WriteFrame(w, vxdp.Response{NavResult: vxdp.NavResult{Err: "session evicted (timeout)"}})
				_ = w.Flush()
			} else if err != io.EOF && !s.srv.drainingNow() {
				s.srv.log.Warn("session read error", "session", s.id, "err", err.Error())
			}
			return
		}
		s.srv.msgs.Add(1)
		s.msgs.Add(1)
		start := time.Now()
		last := s.dispatch(&req, &resp)
		s.srv.cmdHist.Histogram(cmdLabel(req.Op)).Observe(time.Since(start))
		if err := vxdp.WriteResponse(w, &resp); err != nil {
			s.srv.log.Warn("session write error", "session", s.id, "err", err.Error())
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		if last {
			return
		}
	}
}

// cmdLabel maps a request op to a histogram label, folding unknown ops
// into one bucket so a hostile client cannot grow the registry.
func cmdLabel(op string) string {
	switch op {
	case vxdp.OpOpen, vxdp.OpRoot, vxdp.OpDown, vxdp.OpRight, vxdp.OpFetch,
		vxdp.OpSelect, vxdp.OpStats, vxdp.OpTrace, vxdp.OpClose,
		vxdp.OpPing, vxdp.OpRegionGet, vxdp.OpRegionPut, vxdp.OpInvalidate,
		vxdp.OpSlow:
		return op
	}
	return "other"
}

// arm sets the read deadline from the idle and lifetime timeouts.
func (s *session) arm() {
	var dl time.Time
	if t := s.srv.cfg.IdleTimeout; t > 0 {
		dl = time.Now().Add(t)
	}
	if t := s.srv.cfg.MaxLifetime; t > 0 {
		if end := s.born.Add(t); dl.IsZero() || end.Before(dl) {
			dl = end
		}
	}
	_ = s.conn.SetReadDeadline(dl)
}

// sourceStats converts the mediator's per-source buffer accounting into
// its wire form, sorted by source name for stable output.
func sourceStats(m map[string]buffer.Stats) []vxdp.SourceStats {
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]vxdp.SourceStats, 0, len(names))
	for _, name := range names {
		bs := m[name]
		out = append(out, vxdp.SourceStats{
			Name:              name,
			Fills:             int64(bs.Fills),
			DemandFills:       int64(bs.DemandFills),
			PrefetchFills:     int64(bs.PrefetchFills),
			RoundTrips:        int64(bs.RoundTrips),
			BatchedFills:      int64(bs.BatchedFills),
			PendingHoles:      int64(bs.PendingHoles),
			PrefetchErrors:    int64(bs.PrefetchErrors),
			LastPrefetchError: bs.LastPrefetchError,
		})
	}
	return out
}

func errResp(format string, args ...any) vxdp.Response {
	return vxdp.Response{NavResult: vxdp.NavResult{Err: fmt.Sprintf(format, args...)}}
}

// dispatch executes one request into resp. last reports that the
// session should end after the response is flushed.
func (s *session) dispatch(req *vxdp.Request, resp *vxdp.Response) (last bool) {
	switch req.Op {
	case vxdp.OpOpen:
		*resp = s.openRouted(*req)
	case vxdp.OpRoot, vxdp.OpDown, vxdp.OpRight, vxdp.OpFetch, vxdp.OpSelect:
		if s.proxy != nil {
			*resp = s.forward(*req)
			return false
		}
		if s.doc == nil {
			*resp = errResp("no view open (send an open frame first)")
			return false
		}
		traced := s.beginFleetTrace(req.TraceCtx)
		res := s.navigate(&req.Cmd)
		*resp = vxdp.Response{NavResult: res.nr}
		if s.cached != nil && res.node != nil {
			resp.Win = s.window(res.nr.ID, res.node)
		}
		if traced {
			s.endFleetTrace(resp)
		}
	case vxdp.OpStats:
		st := s.srv.Stats()
		n := s.nav.Snapshot()
		st.Session = &vxdp.SessionStats{
			ID:       s.id,
			UptimeMs: time.Since(s.born).Milliseconds(),
			Msgs:     s.msgs.Load(),
			Opens:    s.opens.Load(),
			Navs:     n.Navigations(),
			Down:     n.Down,
			Right:    n.Right,
			Fetch:    n.Fetch,
			Select:   n.Select,
			Root:     n.Root,
		}
		if s.cat != nil {
			st.Session.Sources = sourceStats(s.cat.BufferStats())
		}
		*resp = vxdp.Response{Stats: &st}
	case vxdp.OpTrace:
		switch {
		case s.proxy != nil && s.rec == nil:
			// This node records nothing; the navigations happened on the
			// owner and so did the spans.
			*resp = s.forward(*req)
		case s.rec == nil:
			// Tracing disabled: an empty forest.
			*resp = vxdp.Response{NavResult: vxdp.NavResult{OK: true}}
		default:
			// On a tracing proxy node the local recorder already holds the
			// stitched forest — each proxy span carries the owner's subtree
			// grafted under it (see forward) — so serve it as-is.
			*resp = vxdp.Response{NavResult: vxdp.NavResult{OK: true}, Trace: s.rec.Take()}
		}
	case vxdp.OpSlow:
		// Node-local diagnostic: even on a proxied session the operator
		// asking this node wants this node's flight ring.
		*resp = s.srv.handleSlow()
	case vxdp.OpClose:
		*resp = vxdp.Response{NavResult: vxdp.NavResult{OK: true}}
		return true
	case vxdp.OpPing:
		*resp = s.srv.handlePing()
	case vxdp.OpRegionGet:
		*resp = s.srv.traced(req.TraceCtx, req.Op, func() vxdp.Response { return s.srv.handleRegionGet(*req) })
	case vxdp.OpRegionPut:
		*resp = s.srv.traced(req.TraceCtx, req.Op, func() vxdp.Response { return s.srv.handleRegionPut(*req) })
	case vxdp.OpInvalidate:
		*resp = s.srv.traced(req.TraceCtx, req.Op, func() vxdp.Response { return s.srv.handleInvalidate(*req) })
	default:
		*resp = errResp("unknown op %q", req.Op)
	}
	return false
}

// beginFleetTrace arms the session recorder for one remotely-parented
// command: when the request carries a trace context (the client — or a
// proxying peer — is fleet-tracing), spans recorded while serving it are
// minted ids and parented under the remote span, and endFleetTrace
// drains them into the response so the caller can stitch them under its
// own span. It reports whether it armed anything; untraced commands pay
// one nil check.
func (s *session) beginFleetTrace(ctx *trace.Context) bool {
	if ctx == nil || s.rec == nil {
		return false
	}
	s.rec.SetRemoteParent(*ctx)
	return true
}

// endFleetTrace closes a command armed by beginFleetTrace.
func (s *session) endFleetTrace(resp *vxdp.Response) {
	s.rec.ClearRemoteParent()
	resp.Spans = s.rec.Take()
}

// open compiles the query and makes it the session's view, resetting
// the handle table. The shared region cache makes regions other
// sessions explored free.
func (s *session) open(query string) error {
	res, err := s.compile(query)
	if err != nil {
		return err
	}
	s.installView(res)
	return nil
}

// compile compiles the query on the current catalog, tracing into the
// session's recorder. Every open loads the catalog afresh, so an open
// after Update sees the new data.
func (s *session) compile(query string) (*mediator.Result, error) {
	cat, err := s.srv.catalogNow()
	if err != nil {
		return nil, fmt.Errorf("building the source catalog: %v", err)
	}
	s.cat = cat
	res, err := cat.Query(query)
	if err != nil {
		return nil, err
	}
	if s.rec != nil {
		res.SetTracer(s.rec)
	}
	return res, nil
}

// installView makes a compiled query result the session's document and
// resets the handle table.
func (s *session) installView(res *mediator.Result) {
	s.opens.Add(1)
	// Count every navigation this session answers on its own counters
	// (folded into the server totals); with tracing on, also root a span
	// tree per client command.
	doc := res.Document()
	s.doc = &nav.CountingDoc{Doc: doc, Counters: &s.nav}
	if s.rec != nil {
		s.doc = trace.NewDoc(s.doc, trace.ClientLabel, s.rec)
	}
	s.handles = map[uint64]nav.ID{}
	s.nextH = 0
	s.cached, _ = doc.(*regioncache.Doc)
	clear(s.wins)
	s.wins = s.wins[:0]
}

// leaveView forgets the open view — document, handles and windows —
// when the view moves to another node.
func (s *session) leaveView() {
	s.doc = nil
	s.handles = nil
	s.cached = nil
	s.wins = nil
}

// issue registers a node ID and returns its wire handle.
func (s *session) issue(id nav.ID) uint64 {
	s.nextH++
	s.handles[s.nextH] = id
	return s.nextH
}

// navResult pairs the wire result of a step with the resolved node, so
// the caller can build a window from it without a handle lookup.
type navResult struct {
	nr   vxdp.NavResult
	node nav.ID
}

func navErr(format string, args ...any) navResult {
	return navResult{nr: vxdp.NavResult{Err: fmt.Sprintf(format, args...)}}
}

// navigate executes one navigation command; every op but root starts
// from the node its handle names.
func (s *session) navigate(cmd *vxdp.Cmd) navResult {
	var base nav.ID
	if cmd.Op != vxdp.OpRoot {
		id, ok := s.node(cmd.ID)
		if !ok {
			return navErr("unknown node handle %d", cmd.ID)
		}
		base = id
	}
	var (
		id  nav.ID
		err error
	)
	switch cmd.Op {
	case vxdp.OpRoot:
		id, err = s.doc.Root()
	case vxdp.OpDown:
		id, err = s.down(base)
	case vxdp.OpRight:
		id, err = s.doc.Right(base)
	case vxdp.OpSelect:
		id, err = nav.Select(s.doc, base, nav.LabelIs(cmd.Label), cmd.Self)
	case vxdp.OpFetch:
		label, ferr := s.doc.Fetch(base)
		if ferr != nil {
			return navErr("%v", ferr)
		}
		return navResult{nr: vxdp.NavResult{OK: true, Label: label}}
	default:
		return navErr("unknown op %q", cmd.Op)
	}
	if err != nil {
		return navErr("%v", err)
	}
	if id == nil {
		return navResult{nr: vxdp.NavResult{OK: false}}
	}
	return navResult{nr: vxdp.NavResult{OK: true, ID: s.issue(id)}, node: id}
}
