package server_test

// Fleet tracing end-to-end: a 3-node proxy-mode cluster serving one
// traced navigation must hand the client a SINGLE stitched forest with
// spans from at least two nodes, the routing decision must land in the
// route-latency histograms, and the slow-navigation flight recorder
// must retain the proxied roots.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mix/internal/cluster"
	"mix/internal/fleet"
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/trace"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

const fleetViewDef = `
CONSTRUCT <allhomes>
  <med_home> $H $S {$S} </med_home> {$H}
</allhomes> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2
AND $V1 = $V2
`

const fleetQuery = `
CONSTRUCT <out> $M {$M} </out> {}
WHERE homeview allhomes.med_home $M`

// fleetFactory builds engines over the homes/schools sources with the
// homeview view defined.
func fleetFactory() server.Factory {
	homes, schools := workload.HomesSchools(10, 10, 3, 5)
	return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", homes)
		m.RegisterTree("schoolsSrc", schools)
		if err := m.DefineView("homeview", fleetViewDef); err != nil {
			return nil, err
		}
		return m, nil
	}
}

// nodeName names fleet member i in traces.
func nodeName(i int) string { return "n" + strconv.Itoa(i) }

// startFleet boots n tracing members over factory on loopback,
// clustered in proxy mode with background timers off, named by
// nodeName.
func startFleet(t *testing.T, n int, factory server.Factory, extra ...server.Option) *fleet.Fleet {
	t.Helper()
	f, err := fleet.Start(n, cluster.Config{
		Mode: cluster.ModeProxy, HealthInterval: time.Hour, FlushInterval: -1,
	}, func(i int) (server.Factory, []server.Option) {
		return factory, append([]server.Option{
			server.WithTrace(true), server.WithNodeName(nodeName(i))}, extra...)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// boot boots one standalone server over factory and stops it when the
// test ends.
func boot(t testing.TB, factory server.Factory, opts ...server.Option) (*server.Server, string) {
	t.Helper()
	f, err := fleet.Start(1, cluster.Config{}, func(int) (server.Factory, []server.Option) { return factory, opts })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f.Members[0].Server, f.Members[0].Addr
}

// serve is boot with a region cache of its own, unless opts replace it.
func serve(t testing.TB, factory server.Factory, opts ...server.Option) (*server.Server, string) {
	t.Helper()
	return boot(t, factory, append([]server.Option{server.WithRegionCache(regioncache.New(0))}, opts...)...)
}

// nonOwner returns a member that does NOT own query's routing key, so
// an open through it must proxy, and the owner.
func nonOwner(t *testing.T, f *fleet.Fleet, query string) (entry, owner int) {
	t.Helper()
	owner, err := f.Owner(query)
	if err != nil {
		t.Fatal(err)
	}
	return (owner + 1) % len(f.Members), owner
}

func countSpans(roots []*trace.Span, match func(*trace.Span) bool) int {
	n := 0
	var walk func(sp *trace.Span)
	walk = func(sp *trace.Span) {
		if match(sp) {
			n++
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return n
}

func TestFleetTraceStitchesAcrossNodes(t *testing.T) {
	f := startFleet(t, 3, fleetFactory())
	entry, owner := nonOwner(t, f, fleetQuery)

	c, err := vxdp.Dial(f.Members[entry].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := trace.New()
	c.SetTracer(rec)
	if err := c.Open(fleetQuery); err != nil {
		t.Fatal(err)
	}
	got, err := nav.Materialize(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xmltree.MarshalXML(got), "med_home") {
		t.Fatal("proxied navigation returned an empty answer")
	}

	roots := rec.Take()
	if len(roots) == 0 {
		t.Fatal("client captured no spans")
	}
	for _, r := range roots {
		if r.Label != trace.ClientLabel {
			t.Fatalf("forest root label = %q, want %q (ONE forest, rooted at the client)",
				r.Label, trace.ClientLabel)
		}
	}
	totals := trace.NodeTotals(roots)
	entryName, ownerName := nodeName(entry), nodeName(owner)
	if totals[entryName] == 0 || totals[ownerName] == 0 {
		t.Fatalf("stitched forest misses a node: totals = %v, want spans from %s and %s",
			totals, entryName, ownerName)
	}
	// The hop itself is attributed: proxy spans on the entry node, with
	// the owner's work (down to source navigations) stitched below.
	hops := countSpans(roots, func(sp *trace.Span) bool {
		return sp.Label == trace.ProxyLabel && sp.Node == entryName
	})
	if hops == 0 {
		t.Fatal("no proxy spans attributed to the entry node")
	}
	if n := trace.SourceNavigations(roots); n == 0 {
		t.Fatal("stitched forest shows no source navigations")
	}
}

func TestFleetRouteHistogramInStats(t *testing.T) {
	f := startFleet(t, 3, fleetFactory())
	entry, _ := nonOwner(t, f, fleetQuery)

	c, err := vxdp.Dial(f.Members[entry].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(fleetQuery); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("clustered node reports no cluster stats")
	}
	found := false
	for _, r := range st.Cluster.Routes {
		if r.Mode == "proxy" {
			found = true
			if r.Count < 1 {
				t.Fatalf("proxy route count = %d, want >= 1", r.Count)
			}
			if r.P99Us < r.P50Us {
				t.Fatalf("route quantiles inverted: p50=%dus p99=%dus", r.P50Us, r.P99Us)
			}
		}
	}
	if !found {
		t.Fatalf("stats carry no proxy route latency: %+v", st.Cluster.Routes)
	}

	// The same histograms feed the Prometheus endpoint.
	hs := httptest.NewServer(f.Members[entry].Server.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `mix_cluster_route_duration_seconds_count{mode="proxy"}`) {
		t.Fatalf("metrics missing route histogram:\n%s", body)
	}
}

func TestFleetSlowRingCapturesProxiedNavigation(t *testing.T) {
	f := startFleet(t, 3, fleetFactory(), server.WithSlowNav(0, 16)) // threshold 0: record all
	entry, _ := nonOwner(t, f, fleetQuery)

	c, err := vxdp.Dial(f.Members[entry].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := trace.New()
	c.SetTracer(rec)
	if err := c.Open(fleetQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := nav.Materialize(c); err != nil {
		t.Fatal(err)
	}

	slow, err := c.Slow()
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) == 0 {
		t.Fatal("entry node's flight recorder retained nothing")
	}
	for _, s := range slow {
		if s.Node != nodeName(entry) {
			t.Fatalf("slow record node = %q, want %q (slow op is node-local)",
				s.Node, nodeName(entry))
		}
		if s.Root == nil {
			t.Fatalf("slow record #%d has no span tree", s.Seq)
		}
	}

	// /debug/slow renders the same ring; the counter never forgets.
	hs := httptest.NewServer(f.Members[entry].Server.Handler())
	defer hs.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/debug/slow"); !strings.Contains(body, `"total"`) {
		t.Fatalf("/debug/slow JSON missing total:\n%s", body)
	}
	if body := get("/debug/slow?format=text"); !strings.Contains(body, trace.ProxyLabel) {
		t.Fatalf("/debug/slow text shows no proxy spans:\n%s", body)
	}
	if body := get("/metrics"); !strings.Contains(body, "mix_slow_navigations_total") {
		t.Fatalf("metrics missing slow-navigation counter:\n%s", body)
	}
}
