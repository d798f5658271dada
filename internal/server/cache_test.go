package server_test

// Cross-session cache and catalog behavior over the wire: a second
// session exploring the view a first session already explored is served
// from the shared region cache on the same catalog, and the answer
// stays byte-identical; BumpRegistry invalidates both.

import (
	"testing"
	"time"

	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/xmltree"
)

// openAndMaterialize dials, opens the join query, and materializes the
// whole answer, closing the connection before returning.
func openAndMaterialize(t *testing.T, addr string) string {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	tree, err := nav.Materialize(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return xmltree.MarshalXML(tree)
}

func TestCrossSessionCacheAndPool(t *testing.T) {
	srv, addr := start(t, server.WithRegionCache(regioncache.New(0)))

	cold := openAndMaterialize(t, addr)
	waitDrained(t, srv)
	st := srv.Stats()
	if st.Cache == nil {
		t.Fatal("stats missing cache block on a caching server")
	}
	if st.Cache.Misses == 0 {
		t.Fatalf("cold session recorded no cache misses: %+v", st.Cache)
	}
	coldHits := st.Cache.Hits

	warm := openAndMaterialize(t, addr)
	if warm != cold {
		t.Fatalf("warm answer differs from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	waitDrained(t, srv)
	st = srv.Stats()
	if st.Cache.Hits <= coldHits {
		t.Fatalf("warm session recorded no cache hits: %+v", st.Cache)
	}
	if st.Pool == nil {
		t.Fatal("stats missing pool block")
	}
	if st.Pool.Created != 1 || st.Pool.Reused != 1 {
		t.Fatalf("pool: created=%d reused=%d, want one catalog serving both opens", st.Pool.Created, st.Pool.Reused)
	}

	// A registry bump invalidates the cache and ends the epoch: the next
	// session re-derives under a fresh generation on a new catalog.
	gen := st.Cache.Generation
	srv.BumpRegistry()
	bumped := openAndMaterialize(t, addr)
	if bumped != cold {
		t.Fatalf("post-bump answer differs:\ncold: %s\ngot:  %s", cold, bumped)
	}
	waitDrained(t, srv)
	st = srv.Stats()
	if st.Cache.Generation <= gen {
		t.Fatalf("generation %d not bumped past %d", st.Cache.Generation, gen)
	}
	if st.Pool.Created != 2 {
		t.Fatalf("BumpRegistry did not force one fresh catalog: created=%d, want 2", st.Pool.Created)
	}
}

// TestCacheStatsOverWire: the cache and pool blocks ride the stats
// response, so remote clients can see cross-session effectiveness.
func TestCacheStatsOverWire(t *testing.T) {
	_, addr := start(t, server.WithRegionCache(regioncache.New(0)))
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := nav.Materialize(c); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil || st.Cache.Entries == 0 {
		t.Fatalf("wire stats missing cache block: %+v", st.Cache)
	}
	if st.Pool == nil || st.Pool.Created == 0 {
		t.Fatalf("wire stats missing pool block: %+v", st.Pool)
	}
}

// waitDrained blocks until the server has no active sessions (close
// frames race with dropSession on the server side).
func waitDrained(t *testing.T, srv *server.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SessionsActive > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Stats().SessionsActive > 0 {
		t.Fatal("sessions did not drain")
	}
}
