package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mix/internal/regioncache"
	"mix/internal/trace"
	"mix/internal/vxdp"
)

// Mode selects what a node does with an open whose key another member
// owns.
type Mode string

const (
	// ModeProxy (the default) forwards the open — and every later
	// command of the session — to the owner over a per-session VXDP
	// connection. Transparent to any client.
	ModeProxy Mode = "proxy"
	// ModeLocal serves every session locally and relies purely on the
	// L2 region tier to share explored regions across the fleet.
	ModeLocal Mode = "local"
)

// ParseMode validates a -cluster-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeProxy, ModeLocal:
		return Mode(s), nil
	}
	return "", fmt.Errorf("cluster: unknown mode %q (want proxy or local)", s)
}

// Config configures a cluster node.
type Config struct {
	// Self is this node's advertised address — the one peers dial and
	// the ring hashes. Must appear consistent across the fleet.
	Self string
	// Peers lists the other members' advertised addresses. Self is
	// added implicitly if absent; an empty list is a 1-node cluster.
	Peers []string
	// Replicas is the virtual-node count per member (DefaultReplicas
	// when <= 0).
	Replicas int
	// Mode is the routing mode (ModeProxy when empty).
	Mode Mode
	// HealthInterval spaces the liveness pings (default 2s). Pings
	// double as keep-alives for the control links, so keep it well
	// under the servers' idle timeout.
	HealthInterval time.Duration
	// FlushInterval spaces the L2 flusher sweeps that publish locally
	// explored regions to their owners (default 500ms; <0 disables the
	// background flusher — Flush can still be called manually).
	FlushInterval time.Duration
	// DialTimeout bounds connecting to a peer (default 1s).
	DialTimeout time.Duration
	// CallTimeout bounds one control-link round trip (default 2s).
	CallTimeout time.Duration
	// FailAfter is how many consecutive transport failures mark a peer
	// down (default 2).
	FailAfter int
	// MaxBackoff caps the exponential redial backoff of a down peer
	// (default 30s).
	MaxBackoff time.Duration
	// Logger receives peer up/down transitions (slog.Default when nil).
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.Mode == "" {
		c.Mode = ModeProxy
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 500 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// MaxRegionWire bounds the encoded size of a region shipped over the L2
// protocol: comfortably under vxdp.MaxFrame so the enclosing frame —
// key, envelope — always fits. Larger regions simply stay node-local.
const MaxRegionWire = vxdp.MaxFrame - 4096

// RegionFits reports whether reg is within MaxRegionWire, by the sum of
// its nodes' wire bounds: vxdp.WinNodeBytes plus the Unknown flag. A
// node costs at least 29 bytes, so a region that fits has fewer than 10⁵
// nodes, and its links fit the five characters the bound allows.
func RegionFits(reg *regioncache.Region) bool {
	n := 0
	for _, w := range *reg {
		n += vxdp.WinNodeBytes(w.Label)
		if w.Unknown {
			n += len(`,"u":true`)
		}
	}
	return n <= MaxRegionWire
}

// Node is one member's view of the fleet: the ring, the peer control
// links with their health state, the L2 region tier (it implements
// regioncache.Remote), and the background health/flush loops.
type Node struct {
	cfg   Config
	log   *slog.Logger
	ring  *Ring
	cache *regioncache.Cache
	peers map[string]*peer // keyed by advertised address; excludes Self

	ownedLocal atomic.Int64
	proxied    atomic.Int64
	degraded   atomic.Int64
	l2Hits     atomic.Int64
	l2Misses   atomic.Int64
	l2Serves   atomic.Int64
	l2Fills    atomic.Int64
	invalSent  atomic.Int64
	invalRecv  atomic.Int64
	semLocal   atomic.Int64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// New builds a node over cache (which must be non-nil: the cluster's
// whole point is the shared region tier) and installs it as the cache's
// remote tier. A server given the node (server.WithCluster) serves its
// sessions from that cache and runs the node: Serve starts it and
// Shutdown stops it.
func New(cfg Config, cache *regioncache.Cache) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: node needs an advertised self address")
	}
	if cache == nil {
		return nil, errors.New("cluster: node needs a region cache")
	}
	cfg.fill()
	if _, err := ParseMode(string(cfg.Mode)); err != nil {
		return nil, err
	}
	ring, err := NewRing(append([]string{cfg.Self}, cfg.Peers...), cfg.Replicas)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:   cfg,
		log:   cfg.Logger,
		ring:  ring,
		cache: cache,
		peers: map[string]*peer{},
		stop:  make(chan struct{}),
	}
	for _, m := range ring.Members() {
		if m != cfg.Self {
			n.peers[m] = newPeer(m, cfg)
		}
	}
	cache.SetRemote(n)
	return n, nil
}

// Start launches the health-check and flush loops. It runs once; later
// calls do nothing. A server calls it from Serve.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		n.wg.Add(1)
		go n.healthLoop()
		if n.cfg.FlushInterval > 0 {
			n.wg.Add(1)
			go n.flushLoop()
		}
	})
}

// Stop halts the loops and closes all peer control links. It runs once;
// later calls do nothing. A server calls it from Shutdown. The node must
// not be used afterwards.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.wg.Wait()
		for _, p := range n.peers {
			p.close()
		}
	})
}

// Cache returns the region cache the node was built over: the L1 its
// L2 tier fills and serves.
func (n *Node) Cache() *regioncache.Cache { return n.cache }

// Self returns this node's advertised address.
func (n *Node) Self() string { return n.cfg.Self }

// SetTracer makes the node's peer control links fleet-traced: each link
// gets its own recorder from mk (one per link — concurrent peers
// sharing a recorder would interleave span stacks), so cross-node L2
// fetches and invalidation fans record peer-labelled spans that ride
// back in responses for stitching. Call before Start; a nil mk leaves
// tracing off.
func (n *Node) SetTracer(mk func() *trace.Recorder) {
	for _, p := range n.peers {
		p.setTracer(mk)
	}
}

// Mode returns the routing mode.
func (n *Node) Mode() Mode { return n.cfg.Mode }

// Members returns the fleet's member addresses, sorted.
func (n *Node) Members() []string { return n.ring.Members() }

// Owner returns the member owning the (view name, fingerprint) key.
func (n *Node) Owner(name, fingerprint string) string {
	return n.ring.Owner(RouteKey(name, fingerprint))
}

// IsSelf reports whether addr is this node.
func (n *Node) IsSelf(addr string) bool { return addr == n.cfg.Self }

// Alive reports whether addr is believed up. Self is always alive;
// unknown addresses never are.
func (n *Node) Alive(addr string) bool {
	if addr == n.cfg.Self {
		return true
	}
	p := n.peers[addr]
	return p != nil && p.alive()
}

// DialOwner opens a fresh connection to a peer for a proxied session
// (distinct from the shared control link, so a slow proxied session
// cannot stall health checks or region traffic).
func (n *Node) DialOwner(addr string) (net.Conn, error) {
	if _, ok := n.peers[addr]; !ok {
		return nil, fmt.Errorf("cluster: %s is not a peer", addr)
	}
	return net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
}

// ReportFailure records a transport failure observed outside the
// control link (e.g. a proxied session's connection dying), pushing the
// peer toward down.
func (n *Node) ReportFailure(addr string) {
	if p := n.peers[addr]; p != nil {
		p.noteFailure(errors.New("cluster: session transport failure"))
	}
}

// Routing/telemetry counters, incremented by the server layer.

// RecordOwnedLocal counts an open served locally because this node owns
// its key.
func (n *Node) RecordOwnedLocal() { n.ownedLocal.Add(1) }

// RecordProxied counts a command forwarded to an owner.
func (n *Node) RecordProxied() { n.proxied.Add(1) }

// RecordDegraded counts a session served locally because its owner was
// down (or lost mid-session).
func (n *Node) RecordDegraded() { n.degraded.Add(1) }

// RecordL2Serve counts a region_get this node answered with a region.
func (n *Node) RecordL2Serve() { n.l2Serves.Add(1) }

// RecordL2Fill counts a region_put region this node merged.
func (n *Node) RecordL2Fill() { n.l2Fills.Add(1) }

// RecordInvalRecv counts an invalidation broadcast this node applied.
func (n *Node) RecordInvalRecv() { n.invalRecv.Add(1) }

// Fetch implements regioncache.Remote: one region_get to the key's
// owner, returning whatever the owner has explored under it, complete
// or not — the cache decides where completeness matters. Keys this node
// owns (or whose owner is down) miss immediately — the owner's L1 *is*
// the L2, so there is nowhere else to ask. A non-empty region counts as
// an L2 hit, an empty or failed fetch as a miss.
func (n *Node) Fetch(k regioncache.Key) *regioncache.Region {
	owner := n.ring.Owner(RouteKey(k.Name, k.Fingerprint))
	if owner == n.cfg.Self {
		return nil
	}
	p := n.peers[owner]
	if p == nil || !p.alive() {
		return nil
	}
	var reg *regioncache.Region
	err := p.do(func(c *vxdp.Client) error {
		var err error
		reg, err = c.RegionGet(vxdp.WireKey(k))
		return err
	})
	if err != nil || reg == nil || reg.Empty() {
		n.l2Misses.Add(1)
		return nil
	}
	n.l2Hits.Add(1)
	return reg
}

// RecordCompleteLocal counts a routed open served here instead of being
// proxied because its entry was fully explored once resolved — by an
// exact L2 fill or by a subsuming region alike
// (ClusterStats.SemanticLocal).
func (n *Node) RecordCompleteLocal() { n.semLocal.Add(1) }

// Flush publishes every locally explored region whose key another
// member owns — and which grew here since its last publication — to its
// owner via region_put. Only local growth counts (Entry.Mutations): an
// entry filled from its owner, or absorbed from a peer, and not explored
// further is the owner's knowledge already, and is never sent back.
// Safe to call concurrently with serving; the background flush loop
// calls it every FlushInterval.
func (n *Node) Flush() {
	gen := n.cache.Generation()
	n.cache.ForEach(func(e *regioncache.Entry) {
		k := e.Key()
		if k.Generation != gen {
			return // dead epoch; peers dropped it too
		}
		owner := n.ring.Owner(RouteKey(k.Name, k.Fingerprint))
		if owner == n.cfg.Self {
			return
		}
		mut := e.Mutations()
		if mut == e.Published() {
			return // no local growth: an L2 fill is the owner's own region
		}
		p := n.peers[owner]
		if p == nil || !p.alive() {
			return
		}
		reg := e.Export()
		if reg.Empty() || !RegionFits(reg) {
			// Empty and oversized regions stay node-local; remember the
			// count so the sweep does not re-export them every interval.
			e.MarkPublished(mut)
			return
		}
		err := p.do(func(c *vxdp.Client) error {
			return c.RegionPut(vxdp.WireKey(k), reg)
		})
		if err == nil {
			e.MarkPublished(mut)
		}
	})
}

// BroadcastInvalidate tells every peer to raise its region-cache
// generation to gen. Fire-and-forget with per-peer timeouts: peers that
// are down converge at their next successful health ping, because pings
// return the generation and the health loop re-broadcasts on skew.
func (n *Node) BroadcastInvalidate(gen uint64) {
	for _, p := range n.peers {
		p := p
		n.invalSent.Add(1)
		go func() {
			_ = p.do(func(c *vxdp.Client) error {
				_, err := c.Invalidate(gen)
				return err
			})
		}()
	}
}

// Stats snapshots the node's counters for vxdp.Stats / metrics.
func (n *Node) Stats() *vxdp.ClusterStats {
	up, down := int64(0), int64(0)
	for _, p := range n.peers {
		if p.alive() {
			up++
		} else {
			down++
		}
	}
	return &vxdp.ClusterStats{
		Self:          n.cfg.Self,
		Members:       int64(len(n.ring.Members())),
		PeersUp:       up,
		PeersDown:     down,
		OwnedLocal:    n.ownedLocal.Load(),
		Proxied:       n.proxied.Load(),
		Degraded:      n.degraded.Load(),
		L2Hits:        n.l2Hits.Load(),
		L2Misses:      n.l2Misses.Load(),
		L2Serves:      n.l2Serves.Load(),
		L2Fills:       n.l2Fills.Load(),
		InvalSent:     n.invalSent.Load(),
		InvalRecv:     n.invalRecv.Load(),
		SemanticLocal: n.semLocal.Load(),
	}
}

func (n *Node) healthLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.healthCheck()
		}
	}
}

// healthCheck pings every peer. Beyond liveness, the ping returns the
// peer's cache generation: if a peer lags ours (it was down during a
// BroadcastInvalidate), re-send the invalidation so the fleet
// converges.
func (n *Node) healthCheck() {
	gen := n.cache.Generation()
	for _, p := range n.peers {
		var peerGen uint64
		err := p.do(func(c *vxdp.Client) error {
			var err error
			peerGen, err = c.Ping()
			return err
		})
		if err != nil || peerGen >= gen {
			continue
		}
		_ = p.do(func(c *vxdp.Client) error {
			_, err := c.Invalidate(gen)
			return err
		})
	}
}

func (n *Node) flushLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.Flush()
		}
	}
}

// --- peer -----------------------------------------------------------------

// peer is one fleet member as seen from this node: a lazily dialed
// control link used for pings and region traffic, plus health state
// with consecutive-failure marking and exponential redial backoff.
type peer struct {
	addr        string
	dialTimeout time.Duration
	callTimeout time.Duration
	failAfter   int
	maxBackoff  time.Duration
	log         *slog.Logger

	downFlag atomic.Bool // readable without mu for fast Alive checks

	mu           sync.Mutex
	conn         net.Conn
	client       *vxdp.Client
	mkTracer     func() *trace.Recorder // nil = untraced link
	fails        int
	backoff      time.Duration
	backoffUntil time.Time
}

// setTracer installs (or clears) the recorder factory used when the
// control link is (re)dialed. The current link, if any, is dropped so
// the next call picks up a traced client.
func (p *peer) setTracer(mk func() *trace.Recorder) {
	p.mu.Lock()
	p.mkTracer = mk
	p.dropLinkLocked()
	p.mu.Unlock()
}

func newPeer(addr string, cfg Config) *peer {
	return &peer{
		addr:        addr,
		dialTimeout: cfg.DialTimeout,
		callTimeout: cfg.CallTimeout,
		failAfter:   cfg.FailAfter,
		maxBackoff:  cfg.MaxBackoff,
		log:         cfg.Logger,
	}
}

var errPeerDown = errors.New("cluster: peer down")

func (p *peer) alive() bool { return !p.downFlag.Load() }

// do runs one control-link call under the peer's call timeout. A down
// peer fails fast until its backoff expires, after which the next call
// is the redial probe. Transport errors drop the link and count toward
// down; in-band remote errors (vxdp.ErrRemote) leave health untouched.
func (p *peer) do(f func(*vxdp.Client) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.downFlag.Load() && time.Now().Before(p.backoffUntil) {
		return errPeerDown
	}
	if p.client == nil {
		conn, err := net.DialTimeout("tcp", p.addr, p.dialTimeout)
		if err != nil {
			p.failLocked(err)
			return err
		}
		p.conn = conn
		p.client = vxdp.NewClient(conn)
		if p.mkTracer != nil {
			if rec := p.mkTracer(); rec != nil {
				p.client.SetTracer(rec)
				p.client.SetTraceLabel(trace.PeerLabel)
			}
		}
	}
	_ = p.conn.SetDeadline(time.Now().Add(p.callTimeout))
	err := f(p.client)
	if err == nil || errors.Is(err, vxdp.ErrRemote) {
		_ = p.conn.SetDeadline(time.Time{})
		p.recoverLocked()
		return err
	}
	p.dropLinkLocked()
	p.failLocked(err)
	return err
}

// noteFailure records an out-of-band transport failure (proxy conn
// death).
func (p *peer) noteFailure(err error) {
	p.mu.Lock()
	p.failLocked(err)
	p.mu.Unlock()
}

func (p *peer) recoverLocked() {
	if p.downFlag.Load() {
		p.log.Info("cluster: peer up", "peer", p.addr)
	}
	p.downFlag.Store(false)
	p.fails = 0
	p.backoff = 0
}

func (p *peer) failLocked(err error) {
	p.fails++
	if p.fails < p.failAfter && !p.downFlag.Load() {
		return
	}
	if !p.downFlag.Load() {
		p.log.Warn("cluster: peer down", "peer", p.addr, "err", err)
	}
	p.downFlag.Store(true)
	if p.backoff == 0 {
		p.backoff = 500 * time.Millisecond
	} else if p.backoff < p.maxBackoff {
		p.backoff *= 2
		if p.backoff > p.maxBackoff {
			p.backoff = p.maxBackoff
		}
	}
	p.backoffUntil = time.Now().Add(p.backoff)
}

func (p *peer) dropLinkLocked() {
	if p.conn != nil {
		_ = p.conn.Close()
	}
	p.conn = nil
	p.client = nil
}

func (p *peer) close() {
	p.mu.Lock()
	p.dropLinkLocked()
	p.mu.Unlock()
}
