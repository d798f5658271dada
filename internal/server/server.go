// Package server implements mixd, the sessionful MIX mediator daemon:
// it serves the DOM-VXD command set over VXDP (internal/vxdp) so remote
// clients can navigate virtual mediated views across the network — the
// client↔mediator boundary of Fig. 1 that the in-process engine never
// crosses.
//
// Each accepted connection is one session, handled on its own
// goroutine. All sessions of a source epoch compile their queries on
// one mediator, the epoch's catalog, which the configured factory
// builds at the epoch's first open: its registered sources (LXP buffers
// included), view definitions and prepared-view memo are shared. Lazy
// evaluation state is not: it lives in the query each open compiles, so
// N clients exploring the same view proceed independently. Update ends
// the epoch; the next open builds the next catalog.
//
// The session lifecycle is
//
//	accept → (open query → navigate…)* → close | idle timeout |
//	         lifetime timeout | server shutdown
//
// with per-session idle and absolute-lifetime deadlines (evicted
// sessions are counted), a connection limit that refuses new sessions
// beyond the cap with an error frame, and graceful shutdown: stop
// accepting, let in-flight requests finish, then close drained
// connections; stragglers are cut when the shutdown context expires.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mix/internal/cluster"
	"mix/internal/core"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/regioncache"
	"mix/internal/telemetry"
	"mix/internal/trace"
	"mix/internal/vxdp"
)

// Factory builds the catalog of one source epoch: the mediator every
// session of the epoch compiles its queries on. Register sources and
// define views here. The server calls it at the first open of each
// epoch — after New, Update or a peer's invalidation — and never
// concurrently: it runs under the lock Update takes, so it must not
// call Update itself. Sessions of an older epoch keep navigating the
// catalog they opened on, so sources shared between catalogs (trees,
// LXP clients) must be immutable or internally synchronized. The
// server's region cache is passed (nil when caching is off) so the
// factory can install it before registering sources:
// mediator.SetRegionCache pins the cache generation of the epoch.
type Factory func(cache *regioncache.Cache) (*mediator.Mediator, error)

// config is the assembled server configuration; callers shape it
// through New's functional options rather than a literal.
type config struct {
	// MaxSessions caps concurrently active sessions; connections beyond
	// the cap are refused with an error frame (0 = unlimited).
	MaxSessions int
	// IdleTimeout evicts a session that issues no request for this long
	// (0 = never).
	IdleTimeout time.Duration
	// MaxLifetime evicts a session this long after it was accepted,
	// busy or not (0 = never).
	MaxLifetime time.Duration
	// Logger receives structured session lifecycle and error events
	// (nil = discard).
	Logger *slog.Logger
	// Trace enables per-session span recording: sessions answer the
	// wire trace command with the fan-out behind their navigations, and
	// per-operator latencies feed the operator histograms. Off by
	// default; when off the engine hot path carries no instrumentation.
	Trace bool
	// SourceCounters names the per-source counters (e.g. from
	// lxp.Counting wrappers) to expose on the /metrics endpoint. The
	// server only reads them.
	SourceCounters map[string]*metrics.Counters
	// RegionCache, when non-nil, is shared across all sessions: regions
	// of answer documents explored by one session are served to every
	// other without re-deriving them (see internal/regioncache).
	RegionCache *regioncache.Cache
	// Cluster, when non-nil, makes this server one member of a sharded
	// mediator fleet: opens are routed over the node's consistent-hash
	// ring (proxied to the owning member), the peer-facing
	// region ops are served, and registry bumps broadcast invalidations
	// fleet-wide. The server serves from the node's cache, and starts
	// and stops the node with itself.
	Cluster *cluster.Node
	// NodeName tags every span this server records (span node= field),
	// so stitched fleet traces say which member did the work. Defaults
	// to the cluster self address when clustered, else empty.
	NodeName string
	// SlowThreshold is the flight-recorder slowness bar: a traced root
	// span at least this slow is retained in the slow-navigation ring
	// (0 retains every root; negative disables the recorder). Only
	// effective with Trace on — the recorder feeds off root spans.
	SlowThreshold time.Duration
	// SlowRing is the flight-recorder capacity in retained roots
	// (rounded up to a power of two; <= 0 = telemetry.DefaultSlowRing).
	SlowRing int
	// Prefetch enables the drill walk: a client's first descent into a
	// region the region cache does not hold derives the whole region
	// before the down is answered (DESIGN.md §15). Off by default;
	// requires RegionCache.
	Prefetch bool
	// PrefetchBudget bounds each walk (zero fields take the defaults,
	// DefaultPrefetchNavs and DefaultPrefetchBytes).
	PrefetchBudget core.PrefetchBudget

	factory Factory
}

// Option configures a Server (see New).
type Option func(*config)

// WithMaxSessions caps concurrently active sessions (0 = unlimited).
func WithMaxSessions(n int) Option { return func(c *config) { c.MaxSessions = n } }

// WithIdleTimeout evicts sessions idle for d (0 = never).
func WithIdleTimeout(d time.Duration) Option { return func(c *config) { c.IdleTimeout = d } }

// WithMaxLifetime evicts sessions d after accept, busy or not (0 = never).
func WithMaxLifetime(d time.Duration) Option { return func(c *config) { c.MaxLifetime = d } }

// WithLogger routes structured lifecycle events to l (nil = discard).
func WithLogger(l *slog.Logger) Option { return func(c *config) { c.Logger = l } }

// WithTrace toggles per-session navigation-span recording.
func WithTrace(on bool) Option { return func(c *config) { c.Trace = on } }

// WithSourceCounters exposes per-source counters on /metrics.
func WithSourceCounters(m map[string]*metrics.Counters) Option {
	return func(c *config) { c.SourceCounters = m }
}

// WithRegionCache installs the shared cross-session region cache.
func WithRegionCache(rc *regioncache.Cache) Option {
	return func(c *config) { c.RegionCache = rc }
}

// WithCluster makes the server a member of a sharded mediator fleet
// (see internal/cluster). The server owns the node: its sessions use
// the region cache the node was built over (WithRegionCache may be
// left out; given, it must name that same cache), Serve starts the
// node and Shutdown stops it.
func WithCluster(n *cluster.Node) Option { return func(c *config) { c.Cluster = n } }

// WithNodeName tags recorded spans with this node's name in fleet
// traces (defaults to the cluster self address when clustered).
func WithNodeName(name string) Option { return func(c *config) { c.NodeName = name } }

// WithSlowNav configures the slow-navigation flight recorder: traced
// root spans at least threshold slow are retained in a ring of the
// last ring entries. threshold 0 retains every root; negative disables
// the recorder; ring <= 0 means telemetry.DefaultSlowRing.
func WithSlowNav(threshold time.Duration, ring int) Option {
	return func(c *config) { c.SlowThreshold, c.SlowRing = threshold, ring }
}

// WithPrefetch toggles the drill walk (off by default; requires a
// region cache: WithRegionCache or WithCluster).
func WithPrefetch(on bool) Option { return func(c *config) { c.Prefetch = on } }

// WithPrefetchBudget bounds each drill walk (zero fields keep the
// defaults: DefaultPrefetchNavs / DefaultPrefetchBytes).
func WithPrefetchBudget(b core.PrefetchBudget) Option {
	return func(c *config) { c.PrefetchBudget = b }
}

// WithPrefetchConfidence has no effect. It stays only because bench/
// still calls it; it goes with ROADMAP item 1's bench edit.
func WithPrefetchConfidence(float64) Option { return func(*config) {} }

// Server is a mixd instance. Create with New, run with Serve, stop with
// Shutdown.
type Server struct {
	cfg config
	log *slog.Logger

	// nav accumulates navigation commands answered by *finished*
	// sessions; live sessions keep their own counters (folded in by
	// dropSession, summed live by Stats).
	nav  *metrics.Counters
	msgs atomic.Int64

	// cmdHist records wire-command service latency by op; opHist
	// records per-operator pull latency (fed by trace sinks, so only
	// populated when config.Trace is on); routeHist records open-routing
	// latency by decision mode (proxy/local) — the
	// mix_cluster_route_duration_seconds family.
	cmdHist   *telemetry.Registry
	opHist    *telemetry.Registry
	routeHist *telemetry.Registry

	// nodeName tags recorded spans in fleet traces; flight is the
	// slow-navigation ring (nil = disabled), fed by every recorder's
	// RootSink.
	nodeName string
	flight   *telemetry.FlightRecorder

	active, total, evicted, denied atomic.Int64

	// cache is the shared region cache (nil = caching off).
	cache   *regioncache.Cache
	cluster *cluster.Node
	// catalog is the current source epoch's mediator, nil until the
	// epoch's first open builds it (see catalogNow). epochMu makes
	// building a catalog, and ending its epoch, one step each. built
	// counts the catalogs the factory built, served the opens an
	// existing catalog answered.
	catalog       atomic.Pointer[mediator.Mediator]
	epochMu       sync.Mutex
	built, served atomic.Int64
	// scratch holds the window scratch of finished sessions for reuse
	// (see window.go).
	scratch sync.Pool

	mu       sync.Mutex
	l        net.Listener
	sessions map[uint64]*session
	nextID   uint64
	draining atomic.Bool // set under mu (newSession checks it there), read lock-free per command
	wg       sync.WaitGroup
}

// New returns an unstarted Server whose sessions compile on catalogs
// built by factory, one per source epoch. Defaults: no session limit,
// no timeouts, tracing off, no region cache (a clustered server takes
// its node's); override with options.
func New(factory Factory, opts ...Option) (*Server, error) {
	if factory == nil {
		return nil, errors.New("server: mediator factory is required")
	}
	cfg := config{SlowThreshold: DefaultSlowThreshold}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.factory = factory
	return newServer(cfg)
}

// DefaultSlowThreshold is the slow-navigation bar New seeds before
// options run: traced roots at least this slow enter the flight ring.
const DefaultSlowThreshold = 100 * time.Millisecond

func newServer(cfg config) (*Server, error) {
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if n := cfg.Cluster; n != nil {
		if cfg.RegionCache != nil && cfg.RegionCache != n.Cache() {
			return nil, errors.New("server: WithRegionCache names a cache other than the cluster node's")
		}
		cfg.RegionCache = n.Cache()
		if cfg.NodeName == "" {
			cfg.NodeName = n.Self()
		}
	}
	if cfg.Prefetch {
		if cfg.RegionCache == nil {
			return nil, errors.New("server: prefetch requires a region cache (WithRegionCache or WithCluster)")
		}
		if cfg.PrefetchBudget.MaxNavs == 0 {
			cfg.PrefetchBudget.MaxNavs = DefaultPrefetchNavs
		}
		if cfg.PrefetchBudget.MaxBytes == 0 {
			cfg.PrefetchBudget.MaxBytes = DefaultPrefetchBytes
		}
	}
	s := &Server{
		cfg:       cfg,
		log:       log,
		cache:     cfg.RegionCache,
		cluster:   cfg.Cluster,
		nodeName:  cfg.NodeName,
		nav:       &metrics.Counters{},
		cmdHist:   telemetry.NewRegistry(),
		opHist:    telemetry.NewRegistry(),
		routeHist: telemetry.NewRegistry(),
		sessions:  map[uint64]*session{},
	}
	s.scratch.New = func() any { return new(winScratch) }
	if cfg.Trace && cfg.SlowThreshold >= 0 {
		s.flight = telemetry.NewFlightRecorder(cfg.SlowRing, cfg.SlowThreshold)
	}
	if cfg.Trace && s.cluster != nil {
		// Peer control links get their own recorders: cross-node work a
		// peer does on our behalf (L2 fetches, invalidation fans) shows
		// up in fleet traces — one recorder per link, because concurrent
		// peers sharing one would interleave span stacks.
		s.cluster.SetTracer(s.newRecorder)
	}
	return s, nil
}

// newRecorder builds a span recorder wired the way every recorder on
// this server is wired: bounded retention, node-tagged spans, operator
// latencies sunk into opHist, and completed roots offered to the
// slow-navigation flight ring.
func (s *Server) newRecorder() *trace.Recorder {
	rec := trace.New()
	rec.Limit = traceLimit
	rec.Node = s.nodeName
	opHist := s.opHist
	rec.Sink = func(label, op string, d time.Duration) {
		opHist.Histogram(label + "/" + op).Observe(d)
	}
	if s.flight != nil {
		flight, node := s.flight, s.nodeName
		rec.RootSink = func(sp *trace.Span) { flight.Offer(node, sp) }
	}
	return rec
}

// catalogNow returns the current epoch's catalog, building it at the
// epoch's first open. The factory runs under epochMu, which Update
// holds too, so the data it reads and the cache generation it pins
// belong to one epoch. A factory error goes to this open and is not
// kept: the next open tries again.
func (s *Server) catalogNow() (*mediator.Mediator, error) {
	if m := s.catalog.Load(); m != nil {
		s.served.Add(1)
		return m, nil
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if m := s.catalog.Load(); m != nil {
		s.served.Add(1)
		return m, nil
	}
	m, err := s.cfg.factory(s.cache)
	if err != nil {
		return nil, err
	}
	s.catalog.Store(m)
	s.built.Add(1)
	return m, nil
}

// Update changes the data behind the factory's sources as one step:
// under the epoch lock it runs swap (nil when the data changed by other
// means), invalidates the shared region cache (sessions opened
// afterwards re-derive and re-publish under a fresh generation) and
// ends the source epoch (see endEpoch). The factory runs under the same
// lock, so a catalog never pins a generation newer than its data, and
// every open that starts after Update returns — a live session's reopen
// included — compiles on a catalog of the new data. A view opened
// before keeps its catalog and its now-detached cache entry: it stays
// self-consistent, never mixing old and new data, until it is reopened.
// Under -cluster the new generation is broadcast to every peer, so
// region keys keep lining up fleet-wide: peers that are down converge
// later via the health loop's generation-skew re-broadcast.
func (s *Server) Update(swap func()) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if swap != nil {
		swap()
	}
	var gen uint64
	if s.cache != nil {
		gen = s.cache.Invalidate()
	}
	s.endEpoch()
	if s.cluster != nil {
		s.cluster.BroadcastInvalidate(gen)
	}
}

// BumpRegistry declares that the data behind the factory's sources
// changed: Update(nil).
func (s *Server) BumpRegistry() { s.Update(nil) }

// endEpoch retires the catalog built against the old sources once the
// cache generation has moved — by Update here, or by a peer's broadcast
// (handleInvalidate), under epochMu — so the next open builds a fresh
// one.
func (s *Server) endEpoch() { s.catalog.Store(nil) }

// RegionCache returns the shared region cache (nil when caching is off).
func (s *Server) RegionCache() *regioncache.Cache { return s.cache }

// Serve accepts VXDP sessions on l until Shutdown is called or the
// listener fails. It returns nil after a clean Shutdown. A clustered
// server starts its node's health and flush loops before it accepts.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.l = l
	if s.cluster != nil {
		// Under mu, so a concurrent Shutdown stops a started node.
		s.cluster.Start()
	}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() && errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if s.cfg.MaxSessions > 0 && s.active.Load() >= int64(s.cfg.MaxSessions) {
			s.denied.Add(1)
			s.log.Warn("session denied", "remote", conn.RemoteAddr().String(), "limit", s.cfg.MaxSessions)
			_ = vxdp.WriteFrame(conn, vxdp.Response{NavResult: vxdp.NavResult{
				Err: fmt.Sprintf("server at capacity (%d sessions)", s.cfg.MaxSessions),
			}})
			conn.Close()
			continue
		}
		sess := s.newSession(conn)
		if sess == nil { // lost the race with Shutdown
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sess.run()
		}()
	}
}

func (s *Server) newSession(conn net.Conn) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil
	}
	s.nextID++
	sess := &session{srv: s, id: s.nextID, conn: conn, born: time.Now()}
	if s.cfg.Trace {
		// Spans accumulate until the session's next trace command.
		sess.rec = s.newRecorder()
	}
	s.sessions[sess.id] = sess
	s.active.Add(1)
	s.total.Add(1)
	s.log.Info("session created", "session", sess.id, "remote", conn.RemoteAddr().String())
	return sess
}

func (s *Server) dropSession(sess *session) {
	// Fold the session's counters into the finished-session base FIRST
	// — before the drop is logged and before any teardown (proxy close)
	// that could fail or block — so no exit path
	// can report the session gone while its navigations are still
	// unaccounted. The snapshot is taken once and reused for the log
	// line, so the log always matches what was folded. Folding and
	// unmapping happen in one critical section, so Stats never
	// double-counts the session or misses it.
	navs := sess.nav.Snapshot()
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.nav.Add(navs)
	s.mu.Unlock()
	s.log.Info("session closed", "session", sess.id,
		"msgs", sess.msgs.Load(), "navs", navs.Navigations(),
		"uptime", time.Since(sess.born).Round(time.Millisecond).String())
	sess.closeProxy()
	if sess.scr != nil {
		s.scratch.Put(sess.scr)
		sess.scr = nil
	}
	if sess.fr != nil { // after the session's last write
		sess.fr.Release()
		sess.fr = nil
	}
	// Active until torn down.
	s.active.Add(-1)
}

// drainingNow reports whether Shutdown has been initiated.
func (s *Server) drainingNow() bool { return s.draining.Load() }

// Shutdown stops the server gracefully: it stops accepting, wakes every
// session blocked waiting for a request (in-flight requests still get
// their response), and waits for all sessions to drain. If ctx expires
// first the remaining connections are force-closed and ctx.Err() is
// returned. Either way a clustered server then stops its node: the
// loops exit and the control links to the peers close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	l := s.l
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()

	s.log.Info("draining", "sessions", len(open))

	if l != nil {
		l.Close()
	}
	// Wake blocked readers; sessions notice draining and exit cleanly
	// after finishing whatever request they are serving.
	for _, sess := range open {
		_ = sess.conn.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if s.cluster != nil {
		defer s.cluster.Stop()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-close the stragglers. Sessions stuck inside the engine
		// (not blocked on the connection) are abandoned, not awaited:
		// the caller is exiting.
		s.mu.Lock()
		for _, sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// Stats returns the introspection snapshot also served by the wire
// stats command: finished-session totals plus every live session's
// counters.
func (s *Server) Stats() vxdp.Stats {
	s.mu.Lock()
	n := s.nav.Snapshot()
	for _, sess := range s.sessions {
		n = n.Add(sess.nav.Snapshot())
	}
	s.mu.Unlock()
	st := vxdp.Stats{
		SessionsActive:  s.active.Load(),
		SessionsTotal:   s.total.Load(),
		SessionsEvicted: s.evicted.Load(),
		SessionsDenied:  s.denied.Load(),
		Msgs:            s.msgs.Load(),
		Navs:            n.Navigations(),
		Down:            n.Down,
		Right:           n.Right,
		Fetch:           n.Fetch,
		Select:          n.Select,
		Root:            n.Root,
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	st.Pool = &vxdp.PoolStats{Created: s.built.Load(), Reused: s.served.Load()}
	if s.cluster != nil {
		st.Cluster = s.cluster.Stats()
		if st.Cluster != nil {
			st.Cluster.Routes = s.routeSnapshot()
		}
	}
	if n := core.LoggedBindings(); n > 0 {
		// One binding per pull: every logged pull carried one binding.
		st.Batch = &vxdp.BatchStats{Batches: n, Bindings: n}
	}
	return st
}

// routeSnapshot folds the open-routing latency histograms into their
// wire form, one row per decision mode, sorted by mode label.
func (s *Server) routeSnapshot() []vxdp.RouteLatency {
	labels := s.routeHist.Labels()
	out := make([]vxdp.RouteLatency, 0, len(labels))
	for _, mode := range labels {
		snap := s.routeHist.Histogram(mode).Snapshot()
		if snap.Count == 0 {
			continue
		}
		out = append(out, vxdp.RouteLatency{
			Mode:  mode,
			Count: snap.Count,
			P50Us: snap.P50().Microseconds(),
			P99Us: snap.P99().Microseconds(),
		})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// handleSlow serves the slow op: the flight ring's retained slow
// navigations, oldest first. Served node-locally even on proxied
// sessions — the ring is a per-node diagnostic, and an operator asking
// this node wants this node's view.
func (s *Server) handleSlow() vxdp.Response {
	snaps := s.flight.Snapshot()
	resp := vxdp.Response{NavResult: vxdp.NavResult{OK: true}}
	if len(snaps) == 0 {
		return resp
	}
	resp.Slow = make([]vxdp.SlowNav, len(snaps))
	for i, sn := range snaps {
		resp.Slow[i] = vxdp.SlowNav{
			Seq:    sn.Seq,
			UnixMs: sn.When.UnixMilli(),
			Node:   sn.Node,
			DurNs:  int64(sn.Root.Dur),
			Root:   sn.Root,
		}
	}
	return resp
}
