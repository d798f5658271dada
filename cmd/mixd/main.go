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
// mediator.OpenSource interprets a declaration, for mixd as for mixq;
// it loads once what every source epoch shares (the tree, the CSV
// database, the LXP connection and the source's /metrics counters).
// All client sessions compile on one mediator per source epoch, which
// mediator.Catalog builds over the shared (immutable or
// concurrency-safe) sources; each open gets its own lazy query, so
// concurrent sessions explore independently while the regions of
// answer documents they explore are shared through the cross-session
// region cache: -cache-max-bytes bounds it (whole-entry LRU eviction).
// LXP fills coalesce up to 8 holes per round trip. -prefetch (on by default)
// turns on the server's derive-ahead. The drill walk: a client's first
// descent into a region of the answer the cache does not hold derives
// the whole region, within the server's default walk budget, before the
// descent is answered, so one read-ahead window ships it. Scans: a
// right onto a region top of a view that reads no LXP source first
// derives the next 8 region tops, so the window ships them as leaves.
// -prefetch=false derives only what each navigation asks for.
// SIGINT/SIGTERM shut the daemon down gracefully.
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
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mix/internal/cli"
	"mix/internal/cluster"
	"mix/internal/mediator"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := cli.Exit("mixd", run(ctx, os.Args[1:], os.Stderr), os.Stderr)
	stop()
	os.Exit(code)
}

// options is mixd's command line, filled by the flags registerFlags
// declares.
type options struct {
	srcs, views                 []string
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
	fs.Func("src", "source declaration name=path.xml, name=lxp://host:port/uri, name=rdb:csvdir, or name=demo:kind:n (repeatable)",
		func(s string) error { o.srcs = append(o.srcs, s); return nil })
	fs.Func("view", "view declaration name=path.xmas (repeatable)",
		func(s string) error { o.views = append(o.views, s); return nil })
	fs.IntVar(&o.maxSessions, "max-sessions", 256, "concurrent session limit (0 = unlimited)")
	fs.DurationVar(&o.idle, "idle", 2*time.Minute, "evict sessions idle this long (0 = never)")
	fs.DurationVar(&o.lifetime, "lifetime", 0, "evict sessions this long after accept (0 = never)")
	fs.DurationVar(&o.grace, "grace", 5*time.Second, "drain deadline for graceful shutdown")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	fs.BoolVar(&o.trace, "trace", false, "record per-session navigation traces (wire trace command, operator histograms, fleet trace propagation)")
	fs.IntVar(&o.slowMs, "slow-ms", 100, "retain traced roots at least this slow in the flight ring (/debug/slow, wire slow command); 0 = all, negative = off")
	fs.IntVar(&o.slowRing, "slow-ring", 0, "slow-navigation flight-ring capacity (0 = default)")
	fs.Int64Var(&o.cacheMax, "cache-max-bytes", 64<<20, "region cache budget in bytes; LRU-evicts whole entries over it (0 = unlimited)")
	fs.BoolVar(&o.prefetch, "prefetch", true, "derive ahead: a whole region on a client's first descent into it, and the next region tops on a right over in-memory sources, so windows ship them (false = derive only what each navigation asks for)")
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

// run is mixd with the command line args, logging to stderr: it
// serves until ctx is done, then drains its sessions.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("mixd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := registerFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(stderr, o.logLevel, o.logJSON)
	if err != nil {
		return cli.Usage(err)
	}
	if len(o.srcs) == 0 {
		return cli.Usage(errors.New("no sources; use -src (and see -help)"))
	}
	cat, err := mediator.OpenCatalog(o.srcs, o.views)
	if err != nil {
		return err
	}
	defer cat.Close()

	rc := regioncache.New(o.cacheMax)
	options := []server.Option{
		server.WithMaxSessions(o.maxSessions),
		server.WithIdleTimeout(o.idle),
		server.WithMaxLifetime(o.lifetime),
		server.WithLogger(logger),
		server.WithTrace(o.trace),
		server.WithSlowNav(time.Duration(o.slowMs)*time.Millisecond, o.slowRing),
		server.WithSourceCounters(cat.Counters),
		server.WithRegionCache(rc),
		server.WithPrefetch(o.prefetch),
	}
	if o.cluster {
		self := cmp.Or(o.node, o.addr)
		node, err := cluster.New(cluster.Config{
			Self:           self,
			Peers:          strings.Fields(strings.ReplaceAll(o.peers, ",", " ")),
			Replicas:       o.clusterVnodes,
			Mode:           cluster.Mode(o.clusterMode),
			HealthInterval: o.clusterHealth,
			FlushInterval:  o.clusterFlush,
			Logger:         logger,
		}, rc)
		if err != nil {
			return fmt.Errorf("configuring cluster: %w", err)
		}
		options = append(options, server.WithCluster(node))
		logger.Info("cluster member", "self", self, "members", len(node.Members()), "mode", o.clusterMode)
	}
	srv, err := server.New(func(rc *regioncache.Cache) (*mediator.Mediator, error) { return cat.Mediator(rc, nil) }, options...)
	if err != nil {
		return fmt.Errorf("configuring server: %w", err)
	}

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	logger.Info("serving", "addr", l.Addr().String(),
		"sources", len(o.srcs), "views", len(o.views),
		"max_sessions", o.maxSessions, "idle", o.idle.String(), "trace", o.trace)
	if o.httpAddr != "" {
		hl, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			l.Close()
			return err
		}
		hsrv := &http.Server{Handler: srv.Handler()}
		defer hsrv.Close() // after the drain, in which /healthz says so
		logger.Info("http sidecar up", "addr", hl.Addr().String())
		go func() {
			if err := hsrv.Serve(hl); err != http.ErrServerClosed {
				logger.Error("http sidecar", "err", err.Error())
			}
		}()
	}

	err = cli.Serve(ctx, logger, srv, l, o.grace, "sessions")
	logger.Info("bye", "stats", srv.Stats().String())
	return err
}
