// Command mixd is the MIX mediator daemon: it serves virtual mediated
// views to remote clients over VXDP (the Virtual XML Document
// Protocol), so navigation — not materialization — crosses the
// client↔mediator boundary of Fig. 1.
//
//	mixd -addr :7080 -src homesSrc=homes.xml -src schoolsSrc=schools.xml \
//	     -view homeview=homeview.xmas -max-sessions 256 -idle 2m
//	mixq -connect localhost:7080 -q '...'
//
// Sources are declared like mixq's:
//
//	-src name=path.xml                a local XML document
//	-src name=lxp://host:port/uri     a remote LXP wrapper (cmd/lxpd)
//	-src name=rdb:csvdir              a CSV-backed relational database
//	-src name=demo:books:N            a generated dataset (books|homes|schools)
//
// All client sessions compile on one mediator per source epoch, built
// over the shared (immutable or concurrency-safe) sources; each open
// gets its own lazy query, so concurrent sessions explore independently
// while the regions of answer documents they explore are shared through
// the cross-session region cache:
// -cache-max-bytes bounds it (whole-entry LRU eviction). LXP fills
// coalesce up to 8 holes per round trip. -prefetch (on by default)
// turns on the drill walk: a client's first descent into a region of
// the answer the cache does not hold derives the whole region, within
// the server's default walk budget, before the descent is answered, so
// one read-ahead window ships it; -prefetch=false derives only what
// each navigation asks for. SIGINT/SIGTERM shut the daemon down
// gracefully.
//
// Clustering: -cluster joins a sharded mediator fleet. Sessions are
// routed over a consistent-hash ring keyed by (view name, canonical
// plan fingerprint) — proxied to the owning node, unless -cluster-mode
// local serves every session where it lands — and each node's region
// cache becomes the L1 of a two-tier cache whose L2 is the owning peer
// (see internal/cluster and the README's Clustering quick start). The
// node is built over the server's region cache, and the server runs it:
// its loops start with Serve and stop, with its peer links, at
// Shutdown. All fleet members must be configured with identical
// -src/-view sets, in the same order.
//
// Observability: -http addr serves /metrics (Prometheus), /healthz,
// /debug/slow (the slow-navigation flight ring; ?format=text renders
// span trees) and /debug/pprof/*; -trace enables per-session navigation
// tracing (the wire trace command, per-operator latency histograms,
// and — under -cluster — fleet tracing: trace contexts propagate across
// proxy hops and region traffic, so mixq -trace renders one stitched
// forest with node= tags); -slow-ms sets the flight-recorder threshold
// (0 retains every traced root, negative disables the ring); -log-level
// and -log-json shape the structured log on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mix/internal/cluster"
	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/regioncache"
	"mix/internal/relational"
	"mix/internal/server"
	"mix/internal/telemetry"
	"mix/internal/workload"
	"mix/internal/wrapper"
	"mix/internal/xmltree"
)

// lxpBatch is how many holes one LXP fill round trip coalesces.
const lxpBatch = 8

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

// sourceSpec registers one configured source on a source-epoch catalog.
// The closure shares loaded trees / databases / LXP connections across
// catalogs; per-catalog state (buffers, TreeDocs) is created fresh.
// counters, when non-nil, is the shared per-source counter set exposed
// on /metrics (LXP-backed sources only).
type sourceSpec struct {
	name     string
	register func(m *mediator.Mediator) error
	counters *metrics.Counters
}

// options is mixd's command line, filled by the flags registerFlags
// declares.
type options struct {
	srcs, views                 multiFlag
	addr, httpAddr              string
	maxSessions                 int
	idle, lifetime, grace       time.Duration
	trace                       bool
	slowMs, slowRing            int
	cacheMax                    int64
	prefetch                    bool
	cluster                     bool
	node, peers, clusterMode    string
	clusterVnodes               int
	clusterHealth, clusterFlush time.Duration
	logLevel                    string
	logJSON                     bool
}

// registerFlags declares every mixd flag on fs and returns the options
// they fill once fs is parsed.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7080", "listen address")
	fs.Var(&o.srcs, "src", "source declaration name=path.xml, name=lxp://host:port/uri, name=rdb:csvdir, or name=demo:kind:n (repeatable)")
	fs.Var(&o.views, "view", "view declaration name=path.xmas (repeatable)")
	fs.IntVar(&o.maxSessions, "max-sessions", 256, "concurrent session limit (0 = unlimited)")
	fs.DurationVar(&o.idle, "idle", 2*time.Minute, "evict sessions idle this long (0 = never)")
	fs.DurationVar(&o.lifetime, "lifetime", 0, "evict sessions this long after accept (0 = never)")
	fs.DurationVar(&o.grace, "grace", 5*time.Second, "drain deadline for graceful shutdown")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	fs.BoolVar(&o.trace, "trace", false, "record per-session navigation traces (wire trace command, operator histograms, fleet trace propagation)")
	fs.IntVar(&o.slowMs, "slow-ms", 100, "retain traced roots at least this slow in the flight ring (/debug/slow, wire slow command); 0 = all, negative = off")
	fs.IntVar(&o.slowRing, "slow-ring", 0, "slow-navigation flight-ring capacity (0 = default)")
	fs.Int64Var(&o.cacheMax, "cache-max-bytes", 64<<20, "region cache budget in bytes; LRU-evicts whole entries over it (0 = unlimited)")
	fs.BoolVar(&o.prefetch, "prefetch", true, "derive a whole region on a client's first descent into it, so one window ships it (false = derive only what each navigation asks for)")
	fs.BoolVar(&o.cluster, "cluster", false, "join a sharded mediator fleet: route sessions over a consistent-hash ring and share explored regions with -peers")
	fs.StringVar(&o.node, "node", "", "advertised cluster address of this node (default: -addr); every peer must know it by exactly this string")
	fs.StringVar(&o.peers, "peers", "", "comma-separated advertised addresses of the other fleet members (all nodes must be configured with identical -src/-view sets, in the same order)")
	fs.StringVar(&o.clusterMode, "cluster-mode", "proxy", "what to do with sessions another node owns: proxy (forward transparently) or local (serve locally, share regions only)")
	fs.IntVar(&o.clusterVnodes, "cluster-vnodes", 64, "virtual nodes per member on the consistent-hash ring")
	fs.DurationVar(&o.clusterHealth, "cluster-health", 2*time.Second, "peer health-check (ping) interval")
	fs.DurationVar(&o.clusterFlush, "cluster-flush", 500*time.Millisecond, "interval between sweeps publishing locally explored regions to their owner nodes")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.BoolVar(&o.logJSON, "log-json", false, "emit logs as JSON")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, o.logLevel, o.logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mixd: %v\n", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if len(o.srcs) == 0 {
		fmt.Fprintln(os.Stderr, "mixd: no sources; use -src (and see -help)")
		os.Exit(2)
	}
	specs := make([]sourceSpec, 0, len(o.srcs))
	sourceCounters := map[string]*metrics.Counters{}
	for _, s := range o.srcs {
		name, loc, ok := strings.Cut(s, "=")
		if !ok {
			fatal("malformed -src (want name=location)", "src", s)
		}
		spec, err := openSource(name, loc)
		if err != nil {
			fatal("opening source", "source", name, "err", err.Error())
		}
		if spec.counters != nil {
			sourceCounters[spec.name] = spec.counters
		}
		specs = append(specs, spec)
	}
	viewTexts := map[string]string{}
	for _, v := range o.views {
		name, path, ok := strings.Cut(v, "=")
		if !ok {
			fatal("malformed -view (want name=path)", "view", v)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			fatal("reading view", "view", name, "err", err.Error())
		}
		viewTexts[name] = string(text)
	}

	mopts := mediator.DefaultOptions()
	mopts.LXPBatch = lxpBatch
	factory := func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mopts)
		// Cache before sources: it pins the catalog's cache generation.
		m.SetRegionCache(rc)
		for _, spec := range specs {
			if err := spec.register(m); err != nil {
				return nil, fmt.Errorf("source %s: %w", spec.name, err)
			}
		}
		for name, text := range viewTexts {
			if err := m.DefineView(name, text); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	options := []server.Option{
		server.WithMaxSessions(o.maxSessions),
		server.WithIdleTimeout(o.idle),
		server.WithMaxLifetime(o.lifetime),
		server.WithLogger(logger),
		server.WithTrace(o.trace),
		server.WithSlowNav(time.Duration(o.slowMs)*time.Millisecond, o.slowRing),
		server.WithSourceCounters(sourceCounters),
	}
	rc := regioncache.New(o.cacheMax)
	options = append(options, server.WithRegionCache(rc))
	if o.prefetch {
		options = append(options, server.WithPrefetch(true))
	}
	if o.cluster {
		self := o.node
		if self == "" {
			self = o.addr
		}
		mode, err := cluster.ParseMode(o.clusterMode)
		if err != nil {
			fatal("parsing -cluster-mode", "err", err.Error())
		}
		var peerList []string
		for _, p := range strings.Split(o.peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		node, err := cluster.New(cluster.Config{
			Self:           self,
			Peers:          peerList,
			Replicas:       o.clusterVnodes,
			Mode:           mode,
			HealthInterval: o.clusterHealth,
			FlushInterval:  o.clusterFlush,
			Logger:         logger,
		}, rc)
		if err != nil {
			fatal("configuring cluster", "err", err.Error())
		}
		options = append(options, server.WithCluster(node))
		logger.Info("cluster member", "self", self, "members", len(node.Members()), "mode", string(mode))
	}
	srv, err := server.New(factory, options...)
	if err != nil {
		fatal("configuring server", "err", err.Error())
	}

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatal("listening", "addr", o.addr, "err", err.Error())
	}
	logger.Info("serving", "addr", l.Addr().String(),
		"sources", len(specs), "views", len(viewTexts),
		"max_sessions", o.maxSessions, "idle", o.idle.String(), "trace", o.trace)

	var hsrv *http.Server
	if o.httpAddr != "" {
		hl, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			fatal("listening for http", "addr", o.httpAddr, "err", err.Error())
		}
		hsrv = &http.Server{Handler: srv.Handler()}
		logger.Info("http sidecar up", "addr", hl.Addr().String())
		go func() {
			if err := hsrv.Serve(hl); err != nil && err != http.ErrServerClosed {
				logger.Error("http sidecar", "err", err.Error())
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		if err != nil {
			fatal("serve", "err", err.Error())
		}
	case <-ctx.Done():
		stop()
		logger.Info("signal received; draining sessions")
		sctx, cancel := context.WithTimeout(context.Background(), o.grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Warn("shutdown expired; sessions force-closed", "err", err.Error())
		}
		if hsrv != nil {
			_ = hsrv.Shutdown(sctx)
		}
		<-errc
		logger.Info("bye", "stats", srv.Stats().String())
	}
}

// openSource loads whatever is shareable about a source location once
// and returns a spec that registers it on each source-epoch catalog.
func openSource(name, loc string) (sourceSpec, error) {
	fail := func(err error) (sourceSpec, error) { return sourceSpec{}, err }
	if dir, ok := strings.CutPrefix(loc, "rdb:"); ok {
		db, err := relational.LoadCSVDir(name, dir)
		if err != nil {
			return fail(err)
		}
		// One counter set for the source; each session gets a fresh
		// wrapper over the shared database, counted into it.
		counters := &metrics.Counters{}
		return sourceSpec{name: name, counters: counters, register: func(m *mediator.Mediator) error {
			srv := &lxp.Counting{Inner: &wrapper.Relational{DB: db, ChunkRows: 50}, Counters: counters}
			_, err := m.RegisterLXP(name, srv, name)
			return err
		}}, nil
	}
	if rest, ok := strings.CutPrefix(loc, "lxp://"); ok {
		hostport, uri, ok := strings.Cut(rest, "/")
		if !ok {
			return fail(fmt.Errorf("malformed LXP url %q (want lxp://host:port/uri)", loc))
		}
		client, err := lxp.Dial(hostport)
		if err != nil {
			return fail(fmt.Errorf("dialing %s: %w", hostport, err))
		}
		// The LXP client multiplexes concurrent calls over its one
		// connection, so sessions share it (and its counters) without
		// queueing behind each other. Every session of a source epoch
		// shares the catalog's one buffer for the source (with batching
		// and scan lookahead, wired up by RegisterLXP). Nothing is sent
		// until a plan first navigates the source.
		counting := &lxp.Counting{Inner: client, Counters: &metrics.Counters{}}
		return sourceSpec{name: name, counters: counting.Counters, register: func(m *mediator.Mediator) error {
			_, err := m.RegisterLXP(name, counting, uri)
			return err
		}}, nil
	}
	if rest, ok := strings.CutPrefix(loc, "demo:"); ok {
		kind, nstr, _ := strings.Cut(rest, ":")
		n := 1000
		if nstr != "" {
			var err error
			if n, err = strconv.Atoi(nstr); err != nil {
				return fail(fmt.Errorf("malformed demo size %q", nstr))
			}
		}
		doc, err := workload.Demo(kind, name, n)
		if err != nil {
			return fail(err)
		}
		return treeSpec(name, doc), nil
	}
	data, err := os.ReadFile(loc)
	if err != nil {
		return fail(err)
	}
	t, err := xmltree.UnmarshalXML(string(data))
	if err != nil {
		return fail(fmt.Errorf("parsing %s: %w", loc, err))
	}
	return treeSpec(name, t), nil
}

// treeSpec shares one immutable tree across sessions; every session
// gets its own TreeDoc over it.
func treeSpec(name string, t *xmltree.Tree) sourceSpec {
	return sourceSpec{name: name, register: func(m *mediator.Mediator) error {
		m.RegisterTree(name, t)
		return nil
	}}
}
