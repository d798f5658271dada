package server

import (
	"net"
	"time"

	"mix/internal/cluster"
	"mix/internal/trace"
	"mix/internal/vxdp"
)

// This file is the server side of mixd -cluster: session routing over
// the consistent-hash ring (proxy / degraded-local), the
// per-session proxy link to an owner node, and the peer-facing L2
// region protocol (ping / region_get / region_put / invalidate).

// handlePing answers the cluster liveness probe with this node's
// region-cache generation, so health checks double as epoch-skew
// detection.
func (s *Server) handlePing() vxdp.Response {
	var gen uint64
	if s.cache != nil {
		gen = s.cache.Generation()
	}
	return vxdp.Response{NavResult: vxdp.NavResult{OK: true}, Gen: gen}
}

// handleRegionGet serves a peer's L2 fetch from the local L1 — Peek
// only: no entry creation, no LRU touch, and crucially no remote fetch
// of our own, so region traffic can never chain through a third node.
// The region goes out as explored, complete or not: an asker that needs
// it complete (the semantic lookup) checks that itself. OK=false is a
// plain miss; regions too large for one frame miss too (they stay
// node-local).
func (s *Server) handleRegionGet(req vxdp.Request) vxdp.Response {
	miss := vxdp.Response{NavResult: vxdp.NavResult{OK: false}}
	if s.cache == nil || req.Region == nil {
		return miss
	}
	e := s.cache.Peek(req.Region.CacheKey())
	if e == nil {
		return miss
	}
	reg := e.Export()
	if reg.Empty() || !cluster.RegionFits(reg) {
		return miss
	}
	if s.cluster != nil {
		s.cluster.RecordL2Serve()
	}
	return vxdp.Response{NavResult: vxdp.NavResult{OK: true}, Tree: reg, Gen: s.cache.Generation()}
}

// handleRegionPut merges a peer-published region into the local L1.
// Puts for any generation but the current one are ignored (OK=false):
// the publisher lags an invalidation this node already applied, and its
// own health loop will bring it forward.
func (s *Server) handleRegionPut(req vxdp.Request) vxdp.Response {
	var gen uint64
	if s.cache != nil {
		gen = s.cache.Generation()
	}
	if s.cache == nil || req.Region == nil || req.Tree == nil {
		return vxdp.Response{NavResult: vxdp.NavResult{OK: false}, Gen: gen}
	}
	merged := s.cache.Absorb(req.Region.CacheKey(), req.Tree)
	if merged && s.cluster != nil {
		s.cluster.RecordL2Fill()
	}
	return vxdp.Response{NavResult: vxdp.NavResult{OK: merged}, Gen: s.cache.Generation()}
}

// traced wraps a peer-facing region op in a one-shot span when the
// request carries a trace context: the serving side of cross-node L2
// traffic shows up in the caller's stitched fleet trace as a
// cluster-labelled span on this node. Region ops are session-stateless,
// so the recorder is ephemeral — no per-session recorder to collide
// with. Untraced peers (and untracing servers) go straight through.
func (s *Server) traced(ctx *trace.Context, op string, f func() vxdp.Response) vxdp.Response {
	if ctx == nil || !s.cfg.Trace {
		return f()
	}
	rec := s.newRecorder()
	rec.SetRemoteParent(*ctx)
	sp, _ := rec.BeginContext(trace.ClusterLabel, op)
	resp := f()
	rec.End(sp)
	resp.Spans = rec.Take()
	return resp
}

// handleInvalidate applies a generation broadcast: raise the cache to
// the target epoch and, if that actually advanced it, end the source
// epoch exactly like a local Update, under the same lock — the catalog
// was built against sources the fleet just declared stale.
func (s *Server) handleInvalidate(req vxdp.Request) vxdp.Response {
	if s.cache == nil {
		return vxdp.Response{NavResult: vxdp.NavResult{OK: true}}
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if s.cache.AdvanceTo(req.Gen) {
		s.endEpoch()
		if s.cluster != nil {
			s.cluster.RecordInvalRecv()
		}
	}
	return vxdp.Response{NavResult: vxdp.NavResult{OK: true}, Gen: s.cache.Generation()}
}

// proxyTracedOp reports whether a forwarded command gets a proxy span:
// the navigation commands and the open, which answers the root.
// Introspection forwards (trace) must not open spans — they would
// pollute the forest they fetch.
func proxyTracedOp(op string) bool {
	switch op {
	case vxdp.OpOpen, vxdp.OpRoot, vxdp.OpDown, vxdp.OpRight, vxdp.OpFetch, vxdp.OpSelect:
		return true
	}
	return false
}

// --- session routing ------------------------------------------------------

// proxyLink is a proxied session's private connection to the owner
// node: one remote VXDP session whose lifetime matches the local one.
// Distinct from the cluster's shared control link, so a slow navigation
// cannot stall health checks or region traffic.
type proxyLink struct {
	owner string
	conn  net.Conn
	fr    *vxdp.Frames  // pooled like a session's; drop returns them
	resp  vxdp.Response // every relayed response decodes into this one
}

func (p *proxyLink) do(req vxdp.Request) (vxdp.Response, error) {
	if err := vxdp.WriteRequest(p.fr.W, &req); err != nil {
		return vxdp.Response{}, err
	}
	if err := p.fr.W.Flush(); err != nil {
		return vxdp.Response{}, err
	}
	if err := vxdp.ReadResponse(p.fr.R, &p.resp); err != nil {
		return vxdp.Response{}, err
	}
	return p.resp, nil
}

// closeProxy tears down the proxy link, telling the owner's session to
// end (best effort).
func (s *session) closeProxy() {
	if s.proxy == nil {
		return
	}
	_ = vxdp.WriteFrame(s.proxy.fr.W, vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpClose}})
	_ = s.proxy.fr.W.Flush()
	s.dropProxy()
}

// dropProxy closes the proxy link's connection and returns its frame
// buffers to the pool.
func (s *session) dropProxy() {
	_ = s.proxy.conn.Close()
	s.proxy.fr.Release()
	s.proxy = nil
}

// openRouted handles an open frame under cluster routing. Without a
// cluster (or in local mode, or for an open a peer already proxied to
// us) it is a plain local open. Otherwise the query is compiled locally
// — cheap: parse, compose, canonicalize; no source access — to obtain
// its (view name, plan fingerprint) routing key, and the ring decides:
//
//   - this node owns the key → serve locally;
//   - the owner is down       → serve locally, counted degraded;
//   - otherwise               → forward the open (and every later
//     command) to the owner; if forwarding fails, fall back to local.
func (s *session) openRouted(req vxdp.Request) vxdp.Response {
	cl := s.srv.cluster
	if cl == nil || cl.Mode() == cluster.ModeLocal || req.Proxied {
		if err := s.open(req.Query); err != nil {
			return errResp("%v", err)
		}
		return s.opened(req.TraceCtx)
	}
	// The ring is about to decide; record how long the whole routed open
	// takes under the decision it lands on (degraded fallbacks count as
	// local — the client got a locally served view either way). This is
	// the mix_cluster_route_duration_seconds family.
	start := time.Now()
	mode := "local"
	defer func() { s.srv.routeHist.Histogram(mode).Observe(time.Since(start)) }()
	res, err := s.compile(req.Query)
	if err != nil {
		return errResp("%v", err)
	}
	name, fp := res.CacheKey()
	owner := cl.Owner(name, fp)
	serveLocal := func() vxdp.Response {
		s.closeProxy()
		s.installView(res)
		return s.opened(req.TraceCtx)
	}
	if cl.IsSelf(owner) {
		cl.RecordOwnedLocal()
		return serveLocal()
	}
	if !cl.Alive(owner) {
		cl.RecordDegraded()
		return serveLocal()
	}
	// Complete-entry short-circuit: if resolving the query's entry — the
	// L2 fill from the owner on creation, then the semantic lookup of a
	// subsuming plan, local or at *its* owner — leaves it fully
	// explored, the whole session stays here with zero source
	// navigations. Proxying to the owner could not do better, and the
	// answer is byte-identical by construction.
	if res.SemanticWarm() {
		cl.RecordCompleteLocal()
		return serveLocal()
	}
	resp, err := s.startProxy(owner, req)
	if err != nil || resp.Err != "" || !resp.OK {
		// Owner unreachable or refusing (capacity, bad config): degrade
		// to the answer this node can always give — its own sources. A
		// refused hop's span, drained for a traced client, stays in the
		// open's forest.
		if err != nil {
			cl.ReportFailure(owner)
		}
		hop := resp.Spans
		s.closeProxy()
		cl.RecordDegraded()
		local := serveLocal()
		local.Spans = append(hop, local.Spans...)
		return local
	}
	mode = "proxy"
	cl.RecordProxied()
	s.leaveView() // the view lives on the owner now
	return resp
}

// startProxy establishes (or reuses) the proxy link to owner and opens
// the view there. The forwarded open is marked Proxied so the owner
// serves it locally no matter what its own ring says; the owner's
// answer — the root it opened on, window and spans included — comes
// back as the open's own (the spans under this hop's span, on a
// tracing node).
func (s *session) startProxy(owner string, req vxdp.Request) (vxdp.Response, error) {
	if s.proxy != nil && s.proxy.owner != owner {
		s.closeProxy()
	}
	if s.proxy == nil {
		conn, err := s.srv.cluster.DialOwner(owner)
		if err != nil {
			return vxdp.Response{}, err
		}
		s.proxy = &proxyLink{owner: owner, conn: conn, fr: vxdp.GetFrames(conn)}
	}
	resp, err := s.relay(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpOpen}, Query: req.Query, Proxied: true, TraceCtx: req.TraceCtx})
	if err != nil {
		s.closeProxy()
		return vxdp.Response{}, err
	}
	s.proxyQuery = req.Query
	return resp, nil
}

// forward relays one command of a proxied session to the owner. If the
// owner is lost mid-session the session itself survives: the peer is
// reported down, the view is reopened locally from this node's own
// sources, and the in-flight command gets an error telling the client
// to restart navigation from the root — handles minted by the owner are
// meaningless here.
func (s *session) forward(req vxdp.Request) vxdp.Response {
	resp, err := s.relay(req)
	if err == nil {
		s.srv.cluster.RecordProxied()
		return resp
	}
	owner := s.proxy.owner
	s.srv.cluster.ReportFailure(owner)
	s.dropProxy()
	s.srv.cluster.RecordDegraded()
	query := s.proxyQuery
	s.proxyQuery = ""
	if oerr := s.open(query); oerr != nil {
		return errResp("cluster: owner %s lost and local reopen failed: %v", owner, oerr)
	}
	return errResp("cluster: owner %s lost; view reopened locally, restart navigation from root", owner)
}

// relay sends one request over the proxy link and returns the owner's
// response.
//
// On a tracing node the hop itself is a span: the proxy opens a span
// labelled trace.ProxyLabel (parented under the client's context when
// it sent one), rewrites the forwarded trace context to that span, and
// stitches the subtree the owner returns under it BEFORE ending — so
// the flight recorder and any trace reader see the full cross-node
// tree as one unit. If the original client was tracing, the stitched
// forest is drained back into the response for the client to graft in
// turn.
func (s *session) relay(req vxdp.Request) (vxdp.Response, error) {
	var sp *trace.Span
	clientCtx := req.TraceCtx
	if s.rec != nil && proxyTracedOp(req.Op) {
		if clientCtx != nil {
			s.rec.SetRemoteParent(*clientCtx)
		}
		var ctx trace.Context
		sp, ctx = s.rec.BeginContext(trace.ProxyLabel, req.Op)
		s.rec.ClearRemoteParent()
		req.TraceCtx = &ctx
	}
	resp, err := s.proxy.do(req)
	if sp == nil {
		return resp, err
	}
	if err != nil {
		// The hop failed mid-span: close it (it stays in the recorder as
		// an orphan the next trace fetch will surface — a useful
		// breadcrumb for exactly this failure).
		s.rec.End(sp)
		return resp, err
	}
	if len(resp.Spans) > 0 {
		trace.Stitch(sp, resp.Spans)
		resp.Spans = nil
	}
	s.rec.End(sp)
	if clientCtx != nil {
		resp.Spans = s.rec.Take()
	}
	return resp, nil
}
