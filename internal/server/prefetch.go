package server

import (
	"context"
	"sync"
	"sync/atomic"

	"mix/internal/core"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/predict"
	"mix/internal/trace"
	"mix/internal/vxdp"
)

// This file is the server half of navigation-driven speculative
// prefetch (DESIGN.md §15). Sessions feed region-engagement events into
// a shared successor model (internal/predict); when the model is
// confident about a view's next region, a drain worker warms it through
// core.PrefetchRegion on an engine from the prefetcher's own pool —
// never the demand pool, so mix_engine_pool_* gauges and per-session
// counters stay exactly what they were without speculation.

// Default speculative-drain bounds: enough navigations to drain a
// sizeable region, few enough that a wrong guess stays cheap.
const (
	DefaultPrefetchNavs       = 4096
	DefaultPrefetchBytes      = 256 << 10
	DefaultPrefetchConfidence = 0.5
)

// specRun is one running drain: its kill switch and the region it is
// warming, so demand arriving for exactly that region can cancel it
// (the client is about to derive it anyway) while demand elsewhere
// lets it finish.
type specRun struct {
	cancel context.CancelFunc
	region int
}

// specQuery is a view query compiled on a spec engine. Between two
// drains of the same view key it stays parked with its engine, so the
// next drain resumes the lazy operator state (join logs, hash indexes,
// group state) the previous one built instead of re-deriving it from
// the sources.
type specQuery struct {
	eng *pooledEngine
	res *mediator.Result
}

// prefetcher owns everything speculative: the successor model, the
// running drains, their engine pool, and the counters behind
// mix_prefetch_*. One per server; nil when prefetch is off.
type prefetcher struct {
	srv    *Server
	model  *predict.Model
	budget core.PrefetchBudget
	conf   float64
	// pool holds the spec engines, separate from the demand pool.
	pool *enginePool

	issued    atomic.Int64 // drains spawned (bumped before the goroutine starts)
	hits      atomic.Int64 // predictions the client confirmed by engaging the region
	wasted    atomic.Int64 // predictions the client contradicted
	cancelled atomic.Int64 // drains cancelled mid-flight
	inflight  atomic.Int64
	// navs accumulates speculative answer-boundary navigations — a
	// dedicated block, never a session's, so demand attribution is
	// untouched by speculation.
	navs metrics.Counters

	mu      sync.Mutex
	running map[predict.Key]*specRun
	// views counts the local sessions that have each view key open;
	// parked holds at most one idle spec query per key, and only while
	// that count is positive (see park).
	views  map[predict.Key]int
	parked map[predict.Key]*specQuery
	closed bool
}

func newPrefetcher(s *Server) *prefetcher {
	p := &prefetcher{
		srv:     s,
		model:   predict.NewModel(0),
		budget:  s.cfg.PrefetchBudget,
		conf:    s.cfg.PrefetchConfidence,
		pool:    &enginePool{srv: s, factory: s.cfg.SpecFactory},
		running: map[predict.Key]*specRun{},
		views:   map[predict.Key]int{},
		parked:  map[predict.Key]*specQuery{},
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
	if p.pool.factory == nil {
		p.pool.factory = s.cfg.factory
	}
	if s.cfg.Trace {
		p.pool.newRec = s.newSpecRecorder
	}
	return p
}

// newSpecRecorder builds the recorder of a spec engine: bounded and
// tagged, but deliberately with no Sink and no RootSink — speculative
// latency must never enter the per-operator histograms or the
// slow-navigation flight ring, because no client waited on it.
func (s *Server) newSpecRecorder() *trace.Recorder {
	rec := trace.New()
	rec.Limit = traceLimit
	rec.Node = s.nodeName
	rec.Spec = true
	return rec
}

// spawn starts a drain warming region of the view keyed k, compiled
// from query. A region the cache already knows as far as the drain
// would walk is skipped before anything is spent — no goroutine, no
// engine, no compile — and counts as neither issued, hit nor wasted. At
// most one drain runs per view key; a second prediction for a busy key
// is dropped (the running drain is already warming the newer guess or
// will be re-predicted on the next engagement). Issued and inflight are
// bumped before the goroutine starts, so a caller that observed the
// spawn can quiesce by polling inflight down to zero.
func (p *prefetcher) spawn(k predict.Key, query string, region int, deep bool) bool {
	if query == "" || region < 0 || p.known(k, region, deep) {
		return false
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	if _, busy := p.running[k]; busy {
		p.mu.Unlock()
		return false
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.running[k] = &specRun{cancel: cancel, region: region}
	p.issued.Add(1)
	p.inflight.Add(1)
	p.mu.Unlock()
	go p.drain(ctx, cancel, k, query, region, deep)
	return true
}

// known reports whether the live cache entry for k already holds the
// region as deep as a drain would explore it.
func (p *prefetcher) known(k predict.Key, region int, deep bool) bool {
	c := p.srv.cache
	if c == nil {
		return false
	}
	e := c.Peek(k)
	return e != nil && e.RegionKnown(region, deep)
}

// drain runs one speculative exploration to completion, budget, or
// cancellation, on the key's parked query when there is one. Errors
// are swallowed: speculation is advisory, and the demand path it failed
// to help is untouched. A failed drain drops its query.
func (p *prefetcher) drain(ctx context.Context, cancel context.CancelFunc, k predict.Key, query string, region int, deep bool) {
	defer func() {
		cancel()
		p.mu.Lock()
		delete(p.running, k)
		p.mu.Unlock()
		p.inflight.Add(-1)
	}()
	q := p.checkout(k, query)
	if q == nil {
		return
	}
	r, err := q.res.PrefetchRegion(ctx, region, deep, p.budget, &p.navs)
	// Drop the drain's spans now: a parked engine is not released, and
	// its recorder would otherwise grow across drains.
	q.eng.rec.Take()
	if err != nil {
		p.pool.release(q.eng)
		return
	}
	if r.Cancelled {
		p.cancelled.Add(1)
	}
	p.park(k, q)
}

// checkout hands the drain for k its query: the parked one if any (the
// running map guarantees one drain per key, so nobody else can take
// it), else one freshly compiled on a spec engine. nil means there is
// nothing to drain.
func (p *prefetcher) checkout(k predict.Key, query string) *specQuery {
	p.mu.Lock()
	q := p.parked[k]
	delete(p.parked, k)
	p.mu.Unlock()
	if q != nil {
		return q
	}
	pe, err := p.pool.acquire()
	if err != nil {
		return nil
	}
	res, err := pe.med.Query(query)
	// The freshly compiled query must land on the exact key predicted.
	// A mismatch means the cache generation or source registry moved
	// between prediction and drain — warming under the new key would be
	// warming a region nobody predicted, so the prediction is stale.
	if err != nil || res.RegionKey() != k {
		p.pool.release(pe)
		return nil
	}
	return &specQuery{eng: pe, res: res}
}

// park keeps a drained query for the key's next drain while some local
// session still has the view open, the prefetcher is running, and the
// engine was built under the current epoch — an epoch move drops every
// parked query (dropParked), and this check stops a drain that was
// running across the move from parking a stale one afterwards.
// Anything else goes back through the pool.
func (p *prefetcher) park(k predict.Key, q *specQuery) {
	p.mu.Lock()
	keep := !p.closed && p.views[k] > 0 && q.eng.epoch == p.srv.epoch.Load()
	if keep {
		p.parked[k] = q
	}
	p.mu.Unlock()
	if !keep {
		p.pool.release(q.eng)
	}
}

// openView records that a local session opened view k; closeView that
// it closed or replaced it. The last close releases the key's parked
// query, so a parked query lives exactly as long as its view is open
// somewhere on this node.
func (p *prefetcher) openView(k predict.Key) {
	p.mu.Lock()
	p.views[k]++
	p.mu.Unlock()
}

func (p *prefetcher) closeView(k predict.Key) {
	p.mu.Lock()
	var q *specQuery
	if n := p.views[k] - 1; n > 0 {
		p.views[k] = n
	} else {
		delete(p.views, k)
		q = p.parked[k]
		delete(p.parked, k)
	}
	p.mu.Unlock()
	if q != nil {
		p.pool.release(q.eng)
	}
}

// dropParked drops every parked query and its engine (an epoch move,
// which holds the server's update lock, or shutdown): neither kind of
// engine may go back to the pool.
func (p *prefetcher) dropParked() {
	p.mu.Lock()
	p.parked = map[predict.Key]*specQuery{}
	p.mu.Unlock()
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

// cancelAll cancels every running drain.
func (p *prefetcher) cancelAll() {
	p.mu.Lock()
	for _, r := range p.running {
		r.cancel()
	}
	p.mu.Unlock()
}

// close stops the prefetcher for server shutdown: no new drains, all
// running ones cancelled, parked queries and idle spec engines dropped.
func (p *prefetcher) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cancelAll()
	p.dropParked()
	p.pool.flush()
}

func (p *prefetcher) stats() *vxdp.PrefetchStats {
	return &vxdp.PrefetchStats{
		Issued:    p.issued.Load(),
		Hits:      p.hits.Load(),
		Wasted:    p.wasted.Load(),
		Cancelled: p.cancelled.Load(),
		Navs:      p.navs.Navigations(),
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
			// Descending inside a region is the deep-exploration signal
			// AND an engagement of that region.
			s.srv.prefetch.model.ObserveDrill(s.viewKey)
			s.engage(b.top)
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
		s.srv.prefetch.model.ObserveDrill(s.viewKey)
		s.engage(r)
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
	if p.spawn(s.viewKey, s.viewQuery, next, deep) {
		s.pending = next
	}
}
