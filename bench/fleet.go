package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"time"

	"mix/internal/cluster"
	"mix/internal/core"
	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/relational"
	"mix/internal/server"
	"mix/internal/workload"
	"mix/internal/wrapper"
	"mix/internal/xmltree"
)

// Source data is a constant of the benchmark (the seed orders sessions,
// it does not resize documents), so every seed does comparable work.
const dataSeed = 12

// sourceDelay is the fixed latency injected per LXP request on the
// remote-sources workload: fixed, not random, so it repeats.
const sourceDelay = 500 * time.Microsecond

// lxpChunk is the wrappers' granularity: rows, items or children per
// fill. Small, so that navigation keeps running into holes and source
// round trips — not CPU — set the remote-sources clock.
const lxpChunk = 4

var quiet = slog.New(slog.DiscardHandler)

// delayServer is the bench-local lxp.Server decorator that makes a
// loopback wrapper behave like a remote one: every request — get_root,
// fill, fill_many — takes a fixed delay, whatever it carries.
type delayServer struct {
	inner lxp.Server
	delay time.Duration
}

// wait lets d pass without a timer: it yields to every other runnable
// goroutine until the time is up. time.Sleep cannot do this repeatably
// — on the reference box Sleep(500us) takes 1.1 ms, and how late a
// sleeping vCPU wakes depends on the host — whereas a yielding wait
// ends within a scheduling quantum of d and, like a real remote
// source, lets the rest of the process work meanwhile. The cycles it
// burns while nothing else is runnable show in runtime.cpu_us_per_cmd.
func wait(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}

func (d *delayServer) GetRoot(uri string) (string, error) {
	wait(d.delay)
	return d.inner.GetRoot(uri)
}

func (d *delayServer) Fill(holeID string) ([]*xmltree.Tree, error) {
	wait(d.delay)
	return d.inner.Fill(holeID)
}

func (d *delayServer) FillMany(holeIDs []string) (map[string][]*xmltree.Tree, error) {
	wait(d.delay)
	return lxp.FillMany(d.inner, holeIDs)
}

// lxpSource is one wrapper served over loopback TCP and the shared,
// counted client every mediator registers — what mixd builds for a
// -src name=lxp://host:port/uri declaration.
type lxpSource struct {
	name, uri string
	tcp       *lxp.TCPServer
	done      chan error
	client    *lxp.Client
	counting  *lxp.Counting
}

func startLXP(name, uri string, srv lxp.Server, delay time.Duration) (*lxpSource, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if delay > 0 {
		srv = &delayServer{inner: srv, delay: delay}
	}
	s := &lxpSource{name: name, uri: uri, tcp: lxp.NewTCPServer(srv), done: make(chan error, 1)}
	go func() { s.done <- s.tcp.Serve(l) }()
	s.client, err = lxp.Dial(l.Addr().String())
	if err != nil {
		s.stop()
		return nil, err
	}
	s.counting = lxp.NewCounting(s.client)
	return s, nil
}

func (s *lxpSource) stop() {
	if s.client != nil {
		_ = s.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.tcp.Shutdown(ctx)
	<-s.done
}

// sources is the data of one workload: shared immutable trees and LXP
// clients, registered on every mediator in the same order so registry
// versions and fingerprints line up across engines and nodes.
type sources struct {
	trees []namedTree
	lxps  []*lxpSource

	// Traced runs only: tree sources are wrapped in counting documents
	// and every mediator built is remembered so buffer statistics can
	// be summed at round boundaries.
	traced   bool
	treeNavs metrics.Counters
	mu       sync.Mutex
	meds     []*mediator.Mediator
}

type namedTree struct {
	name string
	tree *xmltree.Tree
}

// relationalHomes loads the homes of a HomesSchools tree into a
// one-table database, adding a beds column the selection filters on.
func relationalHomes(homes *xmltree.Tree) *relational.DB {
	db := relational.NewDB("rdb")
	t := db.Create("homes", "addr", "zip", "price", "beds")
	for i, h := range homes.Children {
		t.MustInsert(h.Find("addr").TextContent(), h.Find("zip").TextContent(),
			h.Find("price").TextContent(), fmt.Sprint(1+i%5))
	}
	return db
}

func buildSources(sp *spec, traced bool) (*sources, error) {
	src := &sources{traced: traced}
	d := sp.data
	homes, schools := workload.HomesSchools(d.homes, d.schools, d.zips, dataSeed)
	if !sp.remote {
		src.trees = append(src.trees, namedTree{"homesSrc", homes}, namedTree{"schoolsSrc", schools})
		if d.detailHomes > 0 {
			src.trees = append(src.trees, namedTree{"detailSrc",
				workload.DetailedHomes(d.detailHomes, d.detail, d.zips, dataSeed)})
		}
		return src, nil
	}
	wrappers := []struct {
		name, uri string
		srv       lxp.Server
	}{
		{"relSrc", "rdb", &wrapper.Relational{DB: relationalHomes(homes), ChunkRows: lxpChunk}},
		{"webSrc", "catalog", &wrapper.Web{Name: "catalog", Catalog: workload.Books("web", d.homes, dataSeed), PageSize: lxpChunk}},
		{"xmlSrc", "homes", wrapper.XML(homes, lxpChunk, 8)},
	}
	for _, w := range wrappers {
		s, err := startLXP(w.name, w.uri, w.srv, sourceDelay)
		if err != nil {
			src.stop()
			return nil, err
		}
		src.lxps = append(src.lxps, s)
	}
	return src, nil
}

func (src *sources) stop() {
	for _, s := range src.lxps {
		s.stop()
	}
}

// mediatorOptions is the option set cmd/mixd builds from its flag
// defaults: every engine default plus -lxp-batch 8.
func mediatorOptions() mediator.Options {
	o := mediator.DefaultOptions()
	o.LXPBatch = 8
	return o
}

// register puts the workload's sources on a mediator.
func (src *sources) register(m *mediator.Mediator) error {
	for _, t := range src.trees {
		if src.traced {
			m.RegisterSource(t.name, &nav.CountingDoc{Doc: nav.NewTreeDoc(t.tree), Counters: &src.treeNavs})
		} else {
			m.RegisterTree(t.name, t.tree)
		}
	}
	for _, s := range src.lxps {
		if _, err := m.RegisterLXP(s.name, s.counting, s.uri); err != nil {
			return err
		}
	}
	return nil
}

// factory is the server.Factory over these sources.
func (src *sources) factory(rc *regioncache.Cache) (*mediator.Mediator, error) {
	m := mediator.New(mediatorOptions())
	m.SetRegionCache(rc)
	if err := src.register(m); err != nil {
		return nil, err
	}
	if src.traced {
		src.mu.Lock()
		src.meds = append(src.meds, m)
		src.mu.Unlock()
	}
	return m, nil
}

// uncached returns a mediator over the same sources with no region
// cache: the oracle's engine.
func (src *sources) uncached() (*mediator.Mediator, error) {
	m := mediator.New(mediatorOptions())
	if err := src.register(m); err != nil {
		return nil, err
	}
	return m, nil
}

// member is one in-process mixd.
type member struct {
	srv  *server.Server
	node *cluster.Node // nil on a single node
	addr string
	done chan error
}

// fleet is the system under test: n in-process servers over loopback
// TCP, configured exactly as cmd/mixd configures itself from its flag
// defaults (plus -cluster -cluster-mode proxy when n > 1). The only
// departures are the ones the benchmark needs to repeat: logs are
// discarded, and the cluster's background timers (health pings, flush
// sweeps) are off and replaced by explicit Flush calls between rounds.
type fleet struct {
	members []*member
	src     *sources
}

func bootFleet(sp *spec, src *sources) (*fleet, error) {
	n := sp.nodes
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i], addrs[i] = l, l.Addr().String()
	}
	f := &fleet{src: src}
	sourceCounters := map[string]*metrics.Counters{}
	for _, s := range src.lxps {
		sourceCounters[s.name] = s.counting.Counters
	}
	for i := 0; i < n; i++ {
		rc := regioncache.New(sp.cacheBytes)
		opts := []server.Option{
			server.WithMaxSessions(256),
			server.WithIdleTimeout(2 * time.Minute),
			server.WithLogger(quiet),
			server.WithSlowNav(100*time.Millisecond, 0),
			server.WithSourceCounters(sourceCounters),
			server.WithRegionCache(rc),
			server.WithPrefetch(true),
			server.WithPrefetchBudget(core.PrefetchBudget{MaxNavs: server.DefaultPrefetchNavs}),
			server.WithPrefetchConfidence(server.DefaultPrefetchConfidence),
		}
		var node *cluster.Node
		if n > 1 {
			peers := make([]string, 0, n-1)
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			var err error
			node, err = cluster.New(cluster.Config{
				Self: addrs[i], Peers: peers, Mode: cluster.ModeProxy,
				HealthInterval: time.Hour, FlushInterval: -1, Logger: quiet,
			}, rc)
			if err != nil {
				return nil, err
			}
			opts = append(opts, server.WithCluster(node))
		}
		srv, err := server.New(src.factory, opts...)
		if err != nil {
			return nil, err
		}
		m := &member{srv: srv, node: node, addr: addrs[i], done: make(chan error, 1)}
		go func(l net.Listener) { m.done <- srv.Serve(l) }(listeners[i])
		if node != nil {
			node.Start()
		}
		f.members = append(f.members, m)
	}
	return f, nil
}

// invalidate declares the sources changed (Server.BumpRegistry on one
// node, which broadcasts the new generation) and waits until every node
// has moved to it.
func (f *fleet) invalidate() error {
	f.members[0].srv.BumpRegistry()
	gen := f.members[0].srv.RegionCache().Generation()
	deadline := time.Now().Add(5 * time.Second)
	for _, m := range f.members {
		for m.srv.RegionCache().Generation() < gen {
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s did not reach generation %d", m.addr, gen)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// flush publishes locally explored regions to their owners — what the
// flush loop would do on its timer.
func (f *fleet) flush() {
	for _, m := range f.members {
		if m.node != nil {
			m.node.Flush()
		}
	}
}

// quiesce waits until no speculative drain is in flight anywhere, so a
// round boundary is a point of rest.
func (f *fleet) quiesce() {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var inflight int64
		for _, m := range f.members {
			if st := m.srv.Stats(); st.Prefetch != nil {
				inflight += st.Prefetch.Inflight
			}
		}
		if inflight == 0 {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// halt stops the fleet. The cluster nodes go first: closing their
// control links ends the peer-facing sessions on the other members by
// EOF, so the servers' graceful shutdown finds nothing left to wait for.
func (f *fleet) halt() error {
	for _, m := range f.members {
		if m.node != nil {
			m.node.Stop()
		}
	}
	var first error
	for _, m := range f.members {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := m.srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
		if err := <-m.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}
