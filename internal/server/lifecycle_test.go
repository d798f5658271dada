package server_test

// A clustered server owns its node: Serve starts it, Shutdown stops it,
// and the server serves from the cache the node was built over.

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net"
	"runtime"
	"testing"
	"time"

	"mix/internal/cluster"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/wirejson"
	"mix/internal/workload"
)

// lifecycleNode builds a node advertised at self over rc, its health
// loop pinging peers every few milliseconds.
func lifecycleNode(t *testing.T, self string, rc *regioncache.Cache, peers ...string) *cluster.Node {
	t.Helper()
	node, err := cluster.New(cluster.Config{
		Self: self, Peers: peers, HealthInterval: 5 * time.Millisecond,
		Logger: slog.New(slog.DiscardHandler),
	}, rc)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// await polls cond for up to five seconds.
func await(t *testing.T, cond func() bool, failure string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(failure)
		}
	}
}

// TestShutdownStopsClusterNode: Serve starts the node it was given, and
// Shutdown alone, with no node.Stop, stops it: its loops exit and the
// peer sees the control link end (its session on the link reads EOF).
func TestShutdownStopsClusterNode(t *testing.T) {
	homes, _ := workload.HomesSchools(4, 1, 2, 5)
	factory := semFactory(nav.NewTreeDoc(homes))
	peer, peerAddr := serve(t, factory)
	base := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := regioncache.New(0)
	srv, err := server.New(factory,
		server.WithRegionCache(rc), server.WithCluster(lifecycleNode(t, l.Addr().String(), rc, peerAddr)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	await(t, func() bool { return peer.Stats().SessionsActive == 1 },
		"the node never pinged its peer: Serve did not start it")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	await(t, func() bool { return peer.Stats().SessionsActive == 0 },
		"the peer's control link is still open after Shutdown")
	await(t, func() bool { return runtime.NumGoroutine() <= base },
		"the node's goroutines outlived Shutdown")
}

// TestShutdownRacingServeStopsNode: however Shutdown and Serve of a
// clustered server interleave — Shutdown first, or both at once — no
// health or flush loop of its node outlives them: Shutdown stops a node
// Serve started, and a node Serve starts after Shutdown stays stopped.
func TestShutdownRacingServeStopsNode(t *testing.T) {
	factory := semFactory(nav.NewTreeDoc(workload.FlatList(1, "a")))
	for i := 0; i < 10; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(factory, server.WithCluster(lifecycleNode(t, l.Addr().String(), regioncache.New(0))))
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		if i == 0 {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			served <- srv.Serve(l)
		} else {
			go func() { served <- srv.Serve(l) }()
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-served; err != nil && !errors.Is(err, wirejson.ErrShutDown) {
			t.Fatalf("Serve racing Shutdown = %v", err)
		}
		l.Close() // a Serve that came second never took it
	}
	await(t, func() bool {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return !bytes.Contains(buf, []byte("created by mix/internal/cluster.(*Node).Start "))
	}, "a node loop outlived a Shutdown that raced Serve")
}

// TestClusterCacheFromNode: a server given only WithCluster serves its
// sessions from the node's cache, so a region a peer puts (an L2 fill)
// answers the next session with no source navigation.
func TestClusterCacheFromNode(t *testing.T) {
	homes, _ := workload.HomesSchools(6, 1, 2, 5)
	// The region a peer would publish: the whole answer, explored in
	// process over a cache of its own.
	ref := regioncache.New(0)
	med, err := semFactory(nav.NewTreeDoc(homes))(ref)
	if err != nil {
		t.Fatal(err)
	}
	res, err := med.Query(semSuperQ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Materialize(); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := regioncache.New(0)
	node := lifecycleNode(t, l.Addr().String(), rc)
	counting := nav.NewCountingDoc(nav.NewTreeDoc(homes))
	srv, err := server.New(semFactory(counting), server.WithCluster(node))
	if err != nil {
		t.Fatal(err)
	}
	if srv.RegionCache() != rc {
		t.Fatal("the server does not serve from the node's cache")
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() { _ = srv.Shutdown(context.Background()); <-done }()

	c, err := vxdp.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegionPut(vxdp.WireKey(res.RegionKey()), ref.Peek(res.RegionKey()).Export()); err != nil {
		t.Fatal(err)
	}
	if fills := node.Stats().L2Fills; fills != 1 {
		t.Fatalf("L2 fills = %d, want 1", fills)
	}
	if got, want := semOpen(t, l.Addr().String(), semSuperQ), semOracle(t, homes, semSuperQ); got != want {
		t.Fatalf("answer after the L2 fill:\n got %s\nwant %s", got, want)
	}
	if navs := counting.Counters.Navigations(); navs != 0 {
		t.Fatalf("%d source navigations after the L2 fill, want 0: the fill missed the sessions' cache", navs)
	}
}

// TestClusterCacheMismatch: a region cache other than the node's is a
// configuration error, not a cache no session reads.
func TestClusterCacheMismatch(t *testing.T) {
	node := lifecycleNode(t, "127.0.0.1:1", regioncache.New(0))
	factory := semFactory(nav.NewTreeDoc(workload.FlatList(1, "a")))
	if _, err := server.New(factory, server.WithRegionCache(regioncache.New(0)), server.WithCluster(node)); err == nil {
		t.Fatal("New accepted a region cache other than the cluster node's")
	}
}
