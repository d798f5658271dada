package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

const joinQuery = `
CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`

func start(t testing.TB, opts ...server.Option) (*server.Server, string) {
	t.Helper()
	homes, schools := workload.HomesSchools(10, 10, 3, 5)
	return boot(t, func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", homes)
		m.RegisterTree("schoolsSrc", schools)
		return m, nil
	}, opts...)
}

func TestConfigRequiresFactory(t *testing.T) {
	if _, err := server.New(nil); err == nil {
		t.Fatal("New accepted a nil factory")
	}
}

func TestSessionLimit(t *testing.T) {
	srv, addr := start(t, server.WithMaxSessions(2))
	c1, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	if err := c2.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	// The third connection is refused with an error frame.
	c3, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	err = c3.Open(joinQuery)
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("over-limit session not refused: %v", err)
	}
	if st := srv.Stats(); st.SessionsDenied != 1 {
		t.Fatalf("denied = %d, want 1", st.SessionsDenied)
	}
	// Freeing a slot admits new sessions again.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SessionsActive >= 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c4, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	if err := c4.Open(joinQuery); err != nil {
		t.Fatalf("session after freed slot refused: %v", err)
	}
}

func TestIdleEviction(t *testing.T) {
	srv, addr := start(t, server.WithIdleTimeout(80*time.Millisecond))
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	// Activity within the idle window keeps the session alive. The probe
	// is a ping: Root after Open answers from the open, without a frame.
	for i := 0; i < 3; i++ {
		time.Sleep(40 * time.Millisecond)
		if _, err := c.Ping(); err != nil {
			t.Fatalf("live session evicted during activity: %v", err)
		}
	}
	// Going idle past the timeout evicts it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SessionsActive > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := srv.Stats()
	if st.SessionsActive != 0 || st.SessionsEvicted == 0 {
		t.Fatalf("idle session not evicted: %+v", st)
	}
	if _, err := c.Ping(); err == nil {
		t.Fatal("command on an evicted session succeeded")
	}
}

// TestIdleEvictionNotice: an idle session's eviction notice reaches
// the client before the connection closes — it is the session's last
// write, made before its frame buffers go back to the pool.
func TestIdleEvictionNotice(t *testing.T) {
	_, addr := start(t, server.WithIdleTimeout(50*time.Millisecond))
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var resp vxdp.Response
		err = vxdp.ReadFrame(conn, &resp)
		conn.Close()
		if err != nil || !strings.Contains(resp.Err, "evicted") {
			t.Fatalf("session %d: read %+v, %v; want the eviction notice", i, resp, err)
		}
	}
}

func TestMaxLifetimeEviction(t *testing.T) {
	srv, addr := start(t, server.WithMaxLifetime(150*time.Millisecond))
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	// Keep the session busy; the lifetime cap evicts it anyway.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Ping(); err != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := srv.Stats()
	if st.SessionsEvicted == 0 {
		t.Fatalf("busy session outlived MaxLifetime: %+v", st)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	homes, schools := workload.HomesSchools(10, 10, 3, 5)
	srv, err := server.New(func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.RegisterTree("homesSrc", homes)
		m.RegisterTree("schoolsSrc", schools)
		return m, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	c, err := vxdp.Dial(l.Addr().String())
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

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	if _, err := c.Ping(); err == nil {
		t.Fatal("drained session still answering")
	}
	// Drained sessions are not "evicted" — they were shut down.
	if st := srv.Stats(); st.SessionsActive != 0 || st.SessionsEvicted != 0 {
		t.Fatalf("after shutdown: %+v", st)
	}
}

// TestShutdownWakesBusySession: Shutdown's wake-up (an immediate read
// deadline) used to be lost on a session that was mid-dispatch when it
// fired — the session loop re-armed its idle deadline over it at the
// top of the next iteration and served on, holding the drain for the
// whole grace period. A peer-link-style client that pipelines commands
// back to back keeps its session permanently in that window.
func TestShutdownWakesBusySession(t *testing.T) {
	srv, addr := start(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(2)
	go func() { // requests, never waiting for the answers
		defer wg.Done()
		for vxdp.WriteFrame(conn, vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpPing}}) == nil {
		}
	}()
	busy := make(chan struct{})
	go func() { // answers
		defer wg.Done()
		r := bufio.NewReader(conn)
		for n := 0; ; n++ {
			var resp vxdp.Response
			if vxdp.ReadFrame(r, &resp) != nil {
				return
			}
			if n == 1000 {
				close(busy)
			}
		}
	}()
	select {
	case <-busy:
	case <-time.After(5 * time.Second):
		t.Fatal("session never got busy")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	begin := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("a busy session held Shutdown for %v", d)
	}
}

// TestRetiredOpRejectedInBand: a frame naming an op the protocol no
// longer speaks — here the retired prefetch_hint — gets an in-band
// "unknown op" error, and the same connection goes on serving open and
// root normally.
func TestRetiredOpRejectedInBand(t *testing.T) {
	_, addr := start(t, server.WithRegionCache(regioncache.New(0)), server.WithPrefetch(true))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	exchange := func(req any) vxdp.Response {
		t.Helper()
		if err := vxdp.WriteFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		var resp vxdp.Response
		if err := vxdp.ReadFrame(r, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	hint := json.RawMessage(`{"op":"prefetch_hint","hint":{"query":"CONSTRUCT <a> $H {$H} </a> {} WHERE homesSrc homes.home $H","key":{"gen":0,"reg":0,"name":"","fp":""},"region":0,"deep":true}}`)
	if resp := exchange(hint); resp.OK || !strings.Contains(resp.Err, "unknown op") {
		t.Fatalf("retired op answered %+v, want an unknown-op error", resp)
	}
	if resp := exchange(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpOpen}, Query: joinQuery}); !resp.OK || resp.Err != "" {
		t.Fatalf("open after the rejected op: %+v", resp)
	}
	if resp := exchange(vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpRoot}}); !resp.OK || resp.ID == 0 {
		t.Fatalf("root after the rejected op: %+v", resp)
	}
}

// TestConcurrentSessionsShareNothing: many goroutines navigate
// per-session views at different paces; every one sees the full,
// correct answer (single-consumer lazy streams are session-private).
func TestConcurrentSessionsShareNothing(t *testing.T) {
	_, addr := start(t)

	homes, schools := workload.HomesSchools(10, 10, 3, 5)
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	m.RegisterTree("schoolsSrc", schools)
	res, err := m.Query(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantTree, err := res.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.MarshalXML(wantTree)

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := vxdp.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.Open(joinQuery); err != nil {
				errs <- err
				return
			}
			got, err := nav.Materialize(c)
			if err != nil {
				errs <- err
				return
			}
			if xmltree.MarshalXML(got) != want {
				errs <- &mismatch{i}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatch struct{ session int }

func (m *mismatch) Error() string { return "session answer differs from local answer" }
