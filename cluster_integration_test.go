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
	"net"
	"testing"
	"time"

	"mix/internal/cluster"
	"mix/internal/fleet"
	"mix/internal/nav"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/xmltree"
)

// startCluster boots n members with identical source/view configuration
// (the fleet contract), wired into one ring in the given mode; one
// member runs standalone.
func startCluster(t *testing.T, n int, mode cluster.Mode, opts ...server.Option) *fleet.Fleet {
	t.Helper()
	f, err := fleet.Start(n, cluster.Config{
		Mode:           mode,
		HealthInterval: 200 * time.Millisecond,
		FlushInterval:  100 * time.Millisecond,
		DialTimeout:    2 * time.Second,
		CallTimeout:    5 * time.Second,
		FailAfter:      2,
	}, func(int) (server.Factory, []server.Option) { return mixdFactory(), opts })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	return f
}

// ownerOf resolves which member owns a query's routing key.
func ownerOf(t *testing.T, f *fleet.Fleet, query string) int {
	t.Helper()
	i, err := f.Owner(query)
	if err != nil {
		t.Fatal(err)
	}
	return i
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
// to in-process evaluation — and both routes were taken. Each query is
// opened through a non-owner first, while its view is still cold there
// (a view a node already holds complete is served locally, not
// proxied), and through its owner last, so some sessions are proxied
// and some owner-local wherever the ring puts the keys.
func TestClusterProxyByteIdentical(t *testing.T) {
	h := startCluster(t, 3, cluster.ModeProxy)
	for _, tc := range queryCorpus {
		want := wantAnswer(t, tc.q)
		owner := ownerOf(t, h, tc.q)
		for k := 1; k <= len(h.Members); k++ {
			i := (owner + k) % len(h.Members)
			if got := materializeVia(t, h.Members[i].Addr, tc.q); got != want {
				t.Fatalf("%s via node %d ≠ in-process\ngot:  %s\nwant: %s", tc.name, i, got, want)
			}
		}
	}
	var proxied, owned int64
	for _, m := range h.Members {
		st := m.Node.Stats()
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
	owner := ownerOf(t, h, q)
	entry := (owner + 1) % 3  // a non-owner node the client connects to
	victim := (owner + 2) % 3 // the third node: unrelated to this session

	c, err := vxdp.Dial(h.Members[entry].Addr)
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
	if err := h.Stop(victim); err != nil {
		t.Fatal(err)
	}
	if got, err := nav.Materialize(c); err != nil {
		t.Fatalf("session died with an unrelated peer: %v", err)
	} else if xmltree.MarshalXML(got) != want {
		t.Fatal("answer changed after unrelated peer death")
	}

	// A fresh open for a key the dead node owned must be served
	// (degraded) by whatever node the client reaches.
	for _, tc := range queryCorpus {
		if ownerOf(t, h, tc.q) == victim {
			if got := materializeVia(t, h.Members[entry].Addr, tc.q); got != wantAnswer(t, tc.q) {
				t.Fatalf("%s owned by dead node served wrong answer", tc.name)
			}
		}
	}

	// Now kill the owner out from under the proxied session. The next
	// command errs (owner handles are gone) but the session survives:
	// restarting from the root completes locally, byte-identical.
	if err := h.Stop(owner); err != nil {
		t.Fatal(err)
	}
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
	if st := h.Members[entry].Node.Stats(); st.Degraded == 0 {
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
	owner := ownerOf(t, h, q)
	cold := (owner + 1) % 3
	warm := (owner + 2) % 3

	if got := materializeVia(t, h.Members[cold].Addr, q); got != want {
		t.Fatal("cold answer differs")
	}
	// Publish the cold node's explored region to the owner now (the
	// background flusher would too; this removes the timing dependence).
	h.Members[cold].Node.Flush()
	if st := h.Members[owner].Node.Stats(); st.L2Fills == 0 {
		t.Fatalf("owner merged no region_put after cold exploration + flush: %+v", st)
	}

	before := h.Members[warm].Node.Stats().L2Hits
	if got := materializeVia(t, h.Members[warm].Addr, q); got != want {
		t.Fatal("warm answer differs")
	}
	if hits := h.Members[warm].Node.Stats().L2Hits - before; hits == 0 {
		t.Fatalf("warm open on node %d hit no L2 regions: %+v", warm, h.Members[warm].Node.Stats())
	}
	if st := h.Members[owner].Node.Stats(); st.L2Serves == 0 {
		t.Fatalf("owner served no region_get: %+v", st)
	}
}

// TestClusterFlushPublishesOnlyLocalGrowth: a non-owner that proxies an
// open of a view its owner has partly explored fills its entry from the
// owner (the L2 fill) and grows it no further, since the owner derives.
// Its Flush must not send that region back to the owner it came from.
func TestClusterFlushPublishesOnlyLocalGrowth(t *testing.T) {
	h, err := fleet.Start(3, cluster.Config{
		Mode:           cluster.ModeProxy,
		HealthInterval: 200 * time.Millisecond,
		FlushInterval:  time.Hour, // only the explicit Flush below publishes
		DialTimeout:    2 * time.Second,
		CallTimeout:    5 * time.Second,
		FailAfter:      2,
	}, func(int) (server.Factory, []server.Option) { return mixdFactory(), nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := h.Close(); err != nil {
			t.Error(err)
		}
	})
	q := queryCorpus[1].q
	owner := ownerOf(t, h, q)
	proxy := (owner + 1) % 3

	// The owner explores the first answers only: its entry is partial,
	// so the non-owner's open is proxied rather than served locally.
	oc, err := vxdp.Dial(h.Members[owner].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	if err := oc.Open(q); err != nil {
		t.Fatal(err)
	}
	if _, err := nav.ExploreFirst(oc, 2); err != nil {
		t.Fatal(err)
	}

	fills := h.Members[owner].Node.Stats().L2Fills
	proxied := h.Members[proxy].Node.Stats().Proxied
	if got, want := materializeVia(t, h.Members[proxy].Addr, q), wantAnswer(t, q); got != want {
		t.Fatal("proxied answer differs")
	}
	if st := h.Members[proxy].Node.Stats(); st.Proxied == proxied || st.L2Hits == 0 {
		t.Fatalf("the non-owner's open was not proxied over an L2-filled entry: %+v", st)
	}
	h.Members[proxy].Node.Flush()
	if got := h.Members[owner].Node.Stats().L2Fills - fills; got != 0 {
		t.Fatalf("flush echoed %d region(s) the owner already had back to it", got)
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
	owner := ownerOf(t, h, q)
	cold := (owner + 1) % 3
	warm := (owner + 2) % 3

	if got := materializeVia(t, h.Members[cold].Addr, q); got != want {
		t.Fatal("cold answer differs")
	}
	h.Members[cold].Node.Flush() // old-generation regions now sit at the owner

	h.Members[cold].Server.BumpRegistry() // sources changed; broadcast the new epoch
	deadline := time.Now().Add(5 * time.Second)
	for {
		allAt := true
		for i, m := range h.Members {
			st := m.Server.Stats()
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

	before := h.Members[warm].Node.Stats().L2Hits
	if got := materializeVia(t, h.Members[warm].Addr, q); got != want {
		t.Fatal("post-invalidation answer differs")
	}
	if hits := h.Members[warm].Node.Stats().L2Hits - before; hits != 0 {
		t.Fatalf("open under generation 1 filled from %d old-generation regions", hits)
	}

	// Belt and braces: ask the owner for the old-generation key
	// directly; it must miss — dropBelow swept it.
	pc, err := vxdp.Dial(h.Members[owner].Addr)
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
