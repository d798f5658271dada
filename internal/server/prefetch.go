package server

import (
	"context"
	"sync"
	"sync/atomic"

	"mix/internal/core"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/predict"
	"mix/internal/trace"
	"mix/internal/vxdp"
)

// This file is the server half of navigation-driven speculative
// prefetch (DESIGN.md §15). Sessions feed region-engagement events into
// a shared successor model (internal/predict); when the model is
// confident about a view's next region, a drain worker warms it through
// core.PrefetchRegion on the session's own query — the lazy state the
// session's demand navigations fill — so each region is derived once,
// and speculation never compiles or opens anything of its own. A fresh
// view has no prediction yet, so the session's first descent into a
// region the cache does not hold derives the whole region as demand
// before it answers (session.down).

// Default speculative-drain bounds: enough navigations to drain a
// sizeable region, few enough that a wrong guess stays cheap.
const (
	DefaultPrefetchNavs       = 4096
	DefaultPrefetchBytes      = 256 << 10
	DefaultPrefetchConfidence = 0.5
)

// specRun is one running drain: its kill switch, the query and region
// it is warming — demand arriving for exactly that region cancels it
// (the client is about to derive it anyway) while demand elsewhere
// lets it finish — and done, closed when the drain has returned.
type specRun struct {
	cancel context.CancelFunc
	res    *mediator.Result
	region int
	done   chan struct{}
}

// prefetcher owns everything speculative: the successor model, the
// running drains, and the counters behind mix_prefetch_*. One per
// server; nil when prefetch is off.
type prefetcher struct {
	srv    *Server
	model  *predict.Model
	budget core.PrefetchBudget
	conf   float64

	issued    atomic.Int64 // drains spawned (bumped before the goroutine starts)
	hits      atomic.Int64 // predictions the client confirmed by engaging the region
	wasted    atomic.Int64 // predictions the client contradicted
	cancelled atomic.Int64 // drains cancelled mid-flight
	inflight  atomic.Int64
	// navs accumulates speculative answer-boundary navigations — a
	// dedicated block, never a session's, so demand attribution is
	// untouched by speculation. srcNavs sums the drains' source
	// navigations (core.PrefetchResult.SrcNavs): the sources' total
	// minus it is what demand paid.
	navs    metrics.Counters
	srcNavs atomic.Int64

	mu      sync.Mutex
	running map[predict.Key]*specRun
	closed  bool
}

func newPrefetcher(s *Server) *prefetcher {
	p := &prefetcher{
		srv:     s,
		model:   predict.NewModel(0),
		budget:  s.cfg.PrefetchBudget,
		conf:    s.cfg.PrefetchConfidence,
		running: map[predict.Key]*specRun{},
	}
	if p.budget.MaxNavs == 0 {
		p.budget.MaxNavs = DefaultPrefetchNavs
	}
	if p.budget.MaxBytes == 0 {
		p.budget.MaxBytes = DefaultPrefetchBytes
	}
	if p.conf == 0 {
		p.conf = DefaultPrefetchConfidence
	}
	return p
}

// spawn starts a drain warming region of res, the query of the view
// keyed k, and returns it (nil when none started). A region the cache
// already knows as far as the drain would walk is skipped before
// anything is spent — no goroutine — and counts as neither issued, hit
// nor wasted. At most one drain runs per view key; a second prediction
// for a busy key is dropped (the running drain is already warming the
// newer guess or will be re-predicted on the next engagement). Issued
// and inflight are bumped before the goroutine starts, so a caller that
// observed the spawn can quiesce by polling inflight down to zero.
func (p *prefetcher) spawn(k predict.Key, res *mediator.Result, region int, deep bool) *specRun {
	if res == nil || region < 0 || p.known(k, region, deep) {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.running[k] != nil {
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &specRun{cancel: cancel, res: res, region: region, done: make(chan struct{})}
	p.running[k] = r
	p.issued.Add(1)
	p.inflight.Add(1)
	go p.drain(ctx, r, k, deep)
	return r
}

// known reports whether the live cache entry for k already holds the
// region as deep as a drain would explore it.
func (p *prefetcher) known(k predict.Key, region int, deep bool) bool {
	e := p.srv.cache.Peek(k)
	return e != nil && e.RegionKnown(region, deep)
}

// drain runs one speculative exploration to completion, budget, or
// cancellation. Errors are swallowed: speculation is advisory, and the
// demand path it failed to help is untouched.
func (p *prefetcher) drain(ctx context.Context, r *specRun, k predict.Key, deep bool) {
	defer func() {
		r.cancel()
		p.mu.Lock()
		delete(p.running, k)
		p.mu.Unlock()
		p.inflight.Add(-1)
		close(r.done)
	}()
	pr, err := r.res.PrefetchRegion(ctx, r.region, deep, p.budget, &p.navs)
	p.srcNavs.Add(pr.SrcNavs)
	if err == nil && pr.Cancelled {
		p.cancelled.Add(1)
	}
}

// wait cancels the drain and returns once it has: nothing but its
// session navigates the query afterwards.
func (r *specRun) wait() {
	r.cancel()
	<-r.done
}

// cancelDemand kills the drain warming exactly (k, region): real demand
// for that region just arrived, and the demand derivation supersedes
// the speculative one instantly (the drain notices within one
// navigation). A drain warming a different region of the same view is
// left to finish.
func (p *prefetcher) cancelDemand(k predict.Key, region int) {
	p.mu.Lock()
	if r, ok := p.running[k]; ok && r.region == region {
		r.cancel()
	}
	p.mu.Unlock()
}

// cancelAll cancels every running drain. Each one's session waits for
// it when it leaves its view.
func (p *prefetcher) cancelAll() {
	p.mu.Lock()
	for _, r := range p.running {
		r.cancel()
	}
	p.mu.Unlock()
}

// close stops the prefetcher for server shutdown: no new drains, all
// running ones cancelled.
func (p *prefetcher) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cancelAll()
}

func (p *prefetcher) stats() *vxdp.PrefetchStats {
	return &vxdp.PrefetchStats{
		Issued:    p.issued.Load(),
		Hits:      p.hits.Load(),
		Wasted:    p.wasted.Load(),
		Cancelled: p.cancelled.Load(),
		Navs:      p.navs.Navigations(),
		SrcNavs:   p.srcNavs.Load(),
		Inflight:  p.inflight.Load(),
	}
}

// --- session-side geometry tracking ---------------------------------------

// nodePos is where a handle sits in its answer document: its depth and
// the index of the top-level region it belongs to. top -1 is the root
// (no region yet); top -2 is unknown (the handle was reached by select,
// whose landing position the server does not resolve — cheaper to skip
// the event than to scan).
type nodePos struct {
	depth int
	top   int
}

// noteMove records geometry for the handle a navigation just issued and
// fires the engagement events the move implies. Only called with
// prefetch on (s.geo non-nil); the off path never reaches it.
func (s *session) noteMove(op string, baseH, newH uint64) {
	switch op {
	case vxdp.OpRoot:
		s.geo[newH] = nodePos{depth: 0, top: -1}
	case vxdp.OpDown:
		b, ok := s.geo[baseH]
		if !ok {
			return
		}
		np := nodePos{depth: b.depth + 1, top: b.top}
		if b.depth == 0 {
			np.top = 0 // first child of the root opens region 0
		}
		s.geo[newH] = np
		if b.depth >= 1 && b.top >= 0 {
			// Descending inside a region is an engagement of that region
			// AND the deep-exploration signal. Engage first: the drill
			// counts on the table the engagement creates for a fresh key.
			s.engage(b.top)
			s.srv.prefetch.model.ObserveDrill(s.viewKey)
		}
	case vxdp.OpRight:
		b, ok := s.geo[baseH]
		if !ok {
			return
		}
		np := b
		if b.depth == 1 && b.top >= 0 {
			// Passing region tops is scanning, not engaging: no event
			// until the client fetches or descends.
			np.top = b.top + 1
		}
		s.geo[newH] = np
	case vxdp.OpSelect:
		b, ok := s.geo[baseH]
		if !ok {
			return
		}
		s.geo[newH] = nodePos{depth: b.depth, top: -2}
	}
}

// down answers a down from handle h, at node base, with prefetch on. A
// descent from a region top into a region the entry does not yet hold
// closed, on a view whose clients drill deep (a view too young to tell
// is presumed to), first derives that whole region on the session's
// demand document (core.WalkRegion, DESIGN.md §15.2), so the window
// built at the landed node ships the rest of it in one frame.
//
// The walk is part of this down: its source spans nest under the
// down's one client span, its source navigations are demand's, and the
// session's counters count the down alone. A drain warming exactly this
// region is cancelled first, as any demand for it would be. The walk
// stops at the drain budget; a navigation error it hits is left for
// the down, or the client's next move, to report.
func (s *session) down(h uint64, base nav.ID) (nav.ID, error) {
	b := s.geo[h]
	p := s.srv.prefetch
	if b.depth != 1 || b.top < 0 || s.cached == nil || !p.model.Deep(s.viewKey) || p.known(s.viewKey, b.top, true) {
		return s.doc.Down(base)
	}
	sp := s.rec.Begin(trace.ClientLabel, string(nav.OpDown))
	defer s.rec.End(sp)
	s.nav.Down.Add(1)
	p.cancelDemand(s.viewKey, b.top)
	_ = core.WalkRegion(s.cached, base, p.budget)
	return s.cached.Down(base)
}

// noteFetch fires the engagement a fetch implies: reading a region
// top's label is the lightest way a client commits attention to it.
func (s *session) noteFetch(baseH uint64) {
	if b, ok := s.geo[baseH]; ok && b.depth == 1 && b.top >= 0 {
		s.engage(b.top)
	}
}

// noteWindow fires what a window shipped at handle h lets the client
// skip. When h landed on a region top, every region top the window
// holds whole — that one and the right siblings after it, up to the
// first one the window cuts — is engaged in order, each with the drill
// a descent into it would fire: the client can now explore them all
// without another frame. They are engaged at shipment, not when the
// client passes them, so the drain of the region after them starts
// while the client is still reading the window rather than racing the
// command that leaves it. A complete view has no region left to drain,
// so its windows engage nothing.
func (s *session) noteWindow(h uint64, win []vxdp.WinNode) {
	pos, ok := s.geo[h]
	if !ok || pos.depth != 1 || pos.top < 0 || s.cached.Complete() {
		return
	}
	for i, r := int32(0), pos.top; i >= 0 && wholeSubtree(win, int(i)); i, r = win[i].Right, r+1 {
		s.engage(r)
		s.srv.prefetch.model.ObserveDrill(s.viewKey)
	}
}

// wholeSubtree reports whether win holds the whole subtree of node i, a
// node whose right siblings only follow its subtree: no link inside the
// subtree leaves the window. Node i's own right link may.
func wholeSubtree(win []vxdp.WinNode, i int) bool {
	end := len(win)
	if r := win[i].Right; r >= 0 {
		end = int(r)
	}
	if win[i].Down == vxdp.WinOut {
		return false
	}
	for _, n := range win[i+1 : end] {
		if n.Down == vxdp.WinOut || n.Right == vxdp.WinOut {
			return false
		}
	}
	return true
}

// engage is the heart of the feedback loop: the session just committed
// attention to a region. Resolve the outstanding prediction (hit or
// wasted), cancel any drain warming exactly this region (demand
// supersedes it), teach the model the transition, and — if the model is
// now confident about the next region — start warming it.
func (s *session) engage(region int) {
	// Deeper moves inside the engaged region re-enter here; they are
	// the same engagement, not a new one, so they must neither resolve
	// the pending prediction nor feed the model.
	if region == s.lastEngaged {
		return
	}
	p := s.srv.prefetch
	if pr := s.pending; pr >= 0 {
		if pr == region {
			p.hits.Add(1)
		} else {
			p.wasted.Add(1)
		}
		s.pending = -1
	}
	p.cancelDemand(s.viewKey, region)
	from := s.lastEngaged
	s.lastEngaged = region
	p.model.Observe(s.viewKey, from, region)
	next, deep, conf, ok := p.model.Predict(s.viewKey, region)
	if !ok || conf < p.conf || next == region {
		return
	}
	if r := p.spawn(s.viewKey, s.viewRes, next, deep); r != nil {
		s.pending = next
		s.drain = r
	}
}
