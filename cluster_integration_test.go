package mix_test

// End-to-end tests of mixd -cluster: a 3-node fleet of in-process
// servers on loopback listeners, each a member of a consistent-hash
// ring over a shared two-tier region cache. The acceptance bar: every
// corpus query answered through every node is byte-identical to
// in-process lazy evaluation; killing a peer mid-run degrades to local
// serving without failing in-flight sessions; warm cross-node opens
// fill from the owner's L1 via the L2 region protocol; and invalidation
// broadcasts keep any of it from ever serving a stale generation. All
// under -race.

import (
	"bufio"
	"context"
	"log/slog"
	"net"
	"testing"
	"time"

	"mix/internal/cluster"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/xmltree"
)

// clusterHarness is a fleet of in-process mixd nodes.
type clusterHarness struct {
	srvs  []*server.Server
	nodes []*cluster.Node
	addrs []string
	done  []chan error
	dead  []bool
}

// startCluster boots n nodes with identical source/view configuration
// (the fleet contract), wired into one ring in the given mode.
func startCluster(t *testing.T, n int, mode cluster.Mode) *clusterHarness {
	t.Helper()
	h := &clusterHarness{
		srvs:  make([]*server.Server, n),
		nodes: make([]*cluster.Node, n),
		addrs: make([]string, n),
		done:  make([]chan error, n),
		dead:  make([]bool, n),
	}
	// Listen first so every node knows the full membership up front —
	// the static -peers model.
	ls := make([]net.Listener, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		h.addrs[i] = l.Addr().String()
	}
	for i := 0; i < n; i++ {
		rc := regioncache.New(0)
		var peers []string
		for j, a := range h.addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node, err := cluster.New(cluster.Config{
			Self:           h.addrs[i],
			Peers:          peers,
			Mode:           mode,
			HealthInterval: 200 * time.Millisecond,
			FlushInterval:  100 * time.Millisecond,
			DialTimeout:    2 * time.Second,
			CallTimeout:    5 * time.Second,
			FailAfter:      2,
			Logger:         slog.New(slog.DiscardHandler),
		}, rc)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(mixdFactory(),
			server.WithRegionCache(rc), server.WithCluster(node))
		if err != nil {
			t.Fatal(err)
		}
		h.srvs[i], h.nodes[i] = srv, node
		h.done[i] = make(chan error, 1)
		done := h.done[i]
		go func(l net.Listener) { done <- srv.Serve(l) }(ls[i])
		node.Start()
	}
	t.Cleanup(func() {
		for i := range h.srvs {
			if !h.dead[i] {
				h.kill(t, i)
			}
		}
	})
	return h
}

// kill shuts one node down hard: stop its cluster loops, drain its
// server. From the peers' point of view the member just died.
func (h *clusterHarness) kill(t *testing.T, i int) {
	t.Helper()
	if h.dead[i] {
		return
	}
	h.dead[i] = true
	h.nodes[i].Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.srvs[i].Shutdown(ctx)
	select {
	case err := <-h.done[i]:
		if err != nil {
			t.Errorf("node %d Serve: %v", i, err)
		}
	case <-time.After(10 * time.Second):
		t.Errorf("node %d did not stop", i)
	}
}

// ownerIndex resolves which node owns a query's routing key, using a
// throwaway local engine to compile the (view name, fingerprint) key.
func (h *clusterHarness) ownerIndex(t *testing.T, query string) int {
	t.Helper()
	med, err := mixdFactory()(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := med.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	name, fp := res.CacheKey()
	owner := h.nodes[0].Owner(name, fp)
	for i, a := range h.addrs {
		if a == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a fleet member", owner)
	return -1
}

// wantAnswer materializes a query in-process: the byte-identity oracle.
func wantAnswer(t *testing.T, query string) string {
	t.Helper()
	med, err := mixdFactory()(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := med.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.MarshalXML(tree)
}

func materializeVia(t *testing.T, addr, query string) string {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(query); err != nil {
		t.Fatal(err)
	}
	tree, err := nav.Materialize(c)
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.MarshalXML(tree)
}

// TestClusterProxyByteIdentical: every corpus query, opened through
// every node of a 3-node proxy-mode fleet, materializes byte-identical
// to in-process evaluation — and at least some of those sessions were
// actually proxied (the corpus keys cannot all live on one node's
// client).
func TestClusterProxyByteIdentical(t *testing.T) {
	h := startCluster(t, 3, cluster.ModeProxy)
	for _, tc := range queryCorpus {
		want := wantAnswer(t, tc.q)
		for i, addr := range h.addrs {
			if got := materializeVia(t, addr, tc.q); got != want {
				t.Fatalf("%s via node %d ≠ in-process\ngot:  %s\nwant: %s", tc.name, i, got, want)
			}
		}
	}
	var proxied, owned int64
	for _, n := range h.nodes {
		st := n.Stats()
		proxied += st.Proxied
		owned += st.OwnedLocal
	}
	if proxied == 0 {
		t.Fatal("no commands were proxied across 15 node×query sessions")
	}
	if owned == 0 {
		t.Fatal("no opens were owner-local")
	}
}

// TestClusterPeerDeathDegrades kills fleet members mid-run and checks
// both halves of the degradation contract: a session proxied through a
// surviving node to a surviving owner is untouched by an unrelated
// peer's death, and when the *owner* dies mid-session, the session
// survives — the in-flight command errs with a reopen notice, and
// navigation restarted from the root completes byte-identically from
// the local node's own sources.
func TestClusterPeerDeathDegrades(t *testing.T) {
	h := startCluster(t, 3, cluster.ModeProxy)
	q := queryCorpus[1].q // the view query
	want := wantAnswer(t, q)
	owner := h.ownerIndex(t, q)
	entry := (owner + 1) % 3  // a non-owner node the client connects to
	victim := (owner + 2) % 3 // the third node: unrelated to this session

	c, err := vxdp.Dial(h.addrs[entry])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(q); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Root(); err != nil {
		t.Fatal(err)
	}

	// Killing a non-owner, non-entry peer must not disturb the session.
	h.kill(t, victim)
	if got, err := nav.Materialize(c); err != nil {
		t.Fatalf("session died with an unrelated peer: %v", err)
	} else if xmltree.MarshalXML(got) != want {
		t.Fatal("answer changed after unrelated peer death")
	}

	// A fresh open for a key the dead node owned must be served
	// (degraded) by whatever node the client reaches.
	for _, tc := range queryCorpus {
		if h.ownerIndex(t, tc.q) == victim {
			if got := materializeVia(t, h.addrs[entry], tc.q); got != wantAnswer(t, tc.q) {
				t.Fatalf("%s owned by dead node served wrong answer", tc.name)
			}
		}
	}

	// Now kill the owner out from under the proxied session. The next
	// command errs (owner handles are gone) but the session survives:
	// restarting from the root completes locally, byte-identical.
	h.kill(t, owner)
	if _, err := c.Root(); err == nil {
		t.Fatal("command after owner death succeeded; want a reopen notice")
	}
	got, err := nav.Materialize(c)
	if err != nil {
		t.Fatalf("session did not survive owner death: %v", err)
	}
	if xmltree.MarshalXML(got) != want {
		t.Fatal("degraded local answer differs from in-process evaluation")
	}
	if st := h.nodes[entry].Stats(); st.Degraded == 0 {
		t.Fatalf("owner death not counted degraded: %+v", st)
	}
}

// TestClusterL2RegionSharing exercises the two-tier cache on its own
// (local routing mode, so no proxying can mask it): a cold session on
// one non-owner explores the view, the flusher publishes the explored
// region to the owner, and a warm session on the *other* non-owner
// fills its L1 from the owner via region_get before touching sources.
func TestClusterL2RegionSharing(t *testing.T) {
	h := startCluster(t, 3, cluster.ModeLocal)
	q := queryCorpus[1].q
	want := wantAnswer(t, q)
	owner := h.ownerIndex(t, q)
	cold := (owner + 1) % 3
	warm := (owner + 2) % 3

	if got := materializeVia(t, h.addrs[cold], q); got != want {
		t.Fatal("cold answer differs")
	}
	// Publish the cold node's explored region to the owner now (the
	// background flusher would too; this removes the timing dependence).
	h.nodes[cold].Flush()
	if st := h.nodes[owner].Stats(); st.L2Fills == 0 {
		t.Fatalf("owner merged no region_put after cold exploration + flush: %+v", st)
	}

	before := h.nodes[warm].Stats().L2Hits
	if got := materializeVia(t, h.addrs[warm], q); got != want {
		t.Fatal("warm answer differs")
	}
	if hits := h.nodes[warm].Stats().L2Hits - before; hits == 0 {
		t.Fatalf("warm open on node %d hit no L2 regions: %+v", warm, h.nodes[warm].Stats())
	}
	if st := h.nodes[owner].Stats(); st.L2Serves == 0 {
		t.Fatalf("owner served no region_get: %+v", st)
	}
}

// TestClusterInvalidationNeverServesStale: after a registry bump on one
// node, the broadcast raises every member to the new generation, and a
// warm open keyed to the new epoch must NOT fill from regions explored
// under the old one — the generation travels inside the region key, so
// the owner misses instead of serving stale data.
func TestClusterInvalidationNeverServesStale(t *testing.T) {
	h := startCluster(t, 3, cluster.ModeLocal)
	q := queryCorpus[1].q
	want := wantAnswer(t, q)
	owner := h.ownerIndex(t, q)
	cold := (owner + 1) % 3
	warm := (owner + 2) % 3

	if got := materializeVia(t, h.addrs[cold], q); got != want {
		t.Fatal("cold answer differs")
	}
	h.nodes[cold].Flush() // old-generation regions now sit at the owner

	h.srvs[cold].BumpRegistry() // sources changed; broadcast the new epoch
	deadline := time.Now().Add(5 * time.Second)
	for {
		allAt := true
		for i, srv := range h.srvs {
			st := srv.Stats()
			if st.Cache == nil || st.Cache.Generation < 1 {
				allAt = false
				if time.Now().After(deadline) {
					t.Fatalf("node %d never reached generation 1: %+v", i, st.Cache)
				}
			}
		}
		if allAt {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	before := h.nodes[warm].Stats().L2Hits
	if got := materializeVia(t, h.addrs[warm], q); got != want {
		t.Fatal("post-invalidation answer differs")
	}
	if hits := h.nodes[warm].Stats().L2Hits - before; hits != 0 {
		t.Fatalf("open under generation 1 filled from %d old-generation regions", hits)
	}

	// Belt and braces: ask the owner for the old-generation key
	// directly; it must miss — dropBelow swept it.
	pc, err := vxdp.Dial(h.addrs[owner])
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	med, err := mixdFactory()(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := med.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	name, fp := res.CacheKey()
	reg, err := pc.RegionGet(vxdp.RegionKey{Gen: 0, Registry: 3, Name: name, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil && !reg.Empty() {
		t.Fatalf("owner served a generation-0 region after invalidating to 1: %d nodes", reg.Nodes())
	}
}

// TestAbruptDisconnectFoldsCounters is the regression test for the
// drop-path ordering in dropSession: a client that vanishes without a
// close frame must still have its per-session navigation counters
// folded into the server totals — fold first, then log, then teardown.
func TestAbruptDisconnectFoldsCounters(t *testing.T) {
	srv, addr := startMixd(t)
	base := srv.Stats().Root

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	r := bufio.NewReader(conn)
	send := func(req vxdp.Request) vxdp.Response {
		t.Helper()
		if err := vxdp.WriteFrame(w, req); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var resp vxdp.Response
		if err := vxdp.ReadFrame(r, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" {
			t.Fatalf("remote: %s", resp.Err)
		}
		return resp
	}
	send(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpOpen}, Query: queryCorpus[0].q})
	const roots = 5
	for i := 0; i < roots; i++ {
		send(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpRoot}})
	}
	conn.Close() // abrupt: no close frame

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SessionsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never dropped after abrupt disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The session is gone from the live set, so these roots can only be
	// visible if dropSession folded them into the finished-session base.
	if got := srv.Stats().Root - base; got < roots {
		t.Fatalf("after abrupt disconnect, folded root count = %d, want ≥ %d", got, roots)
	}
}
