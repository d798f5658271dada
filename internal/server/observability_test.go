package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mix/internal/nav"
	"mix/internal/server"
	"mix/internal/trace"
	"mix/internal/vxdp"
)

// TestStatsOpOverWire drives a live VXDP connection and checks both the
// server-wide counters and the per-session block of the stats response.
func TestStatsOpOverWire(t *testing.T) {
	_, addr := start(t)
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	root, err := c.Root()
	if err != nil || root == nil {
		t.Fatalf("root: %v %v", root, err)
	}
	child, err := c.Down(root)
	if err != nil || child == nil {
		t.Fatalf("down: %v %v", child, err)
	}
	if _, err := c.Fetch(child); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsActive != 1 || st.SessionsTotal != 1 {
		t.Fatalf("sessions active=%d total=%d, want 1/1", st.SessionsActive, st.SessionsTotal)
	}
	// open + root + down + fetch + stats = 5 frames.
	if st.Msgs != 5 {
		t.Fatalf("msgs = %d, want 5", st.Msgs)
	}
	if st.Navs != 3 || st.Root != 1 || st.Down != 1 || st.Fetch != 1 {
		t.Fatalf("server navs = %+v", st)
	}
	if st.Pool == nil || st.Pool.Created != 1 {
		t.Fatalf("stats response pool block = %+v, want one catalog built", st.Pool)
	}
	if st.Session == nil {
		t.Fatal("stats response missing the per-session block")
	}
	s := st.Session
	if s.ID == 0 || s.UptimeMs < 0 {
		t.Fatalf("session identity: %+v", s)
	}
	if s.Opens != 1 || s.Msgs != 5 {
		t.Fatalf("session opens=%d msgs=%d, want 1/5", s.Opens, s.Msgs)
	}
	if s.Navs != 3 || s.Root != 1 || s.Down != 1 || s.Fetch != 1 || s.Right != 0 || s.Select != 0 {
		t.Fatalf("session navs = %+v", s)
	}
}

// TestStatsAggregatesAcrossSessions checks that server totals are the
// sum of live per-session counters while each session's own block stays
// private to it.
func TestStatsAggregatesAcrossSessions(t *testing.T) {
	_, addr := start(t)
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
	for _, c := range []*vxdp.Client{c1, c2} {
		if err := c.Open(joinQuery); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Root(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c1.Down(mustRoot(t, c1)); err != nil {
		t.Fatal(err)
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// c1: root, root, down; c2: root → server-wide root=3, down=1.
	if st.Root != 3 || st.Down != 1 {
		t.Fatalf("server-wide root=%d down=%d, want 3/1", st.Root, st.Down)
	}
	if st.Session.Root != 1 || st.Session.Down != 0 {
		t.Fatalf("c2's session block leaked c1's navigations: %+v", st.Session)
	}
}

func mustRoot(t *testing.T, c *vxdp.Client) nav.ID {
	t.Helper()
	root, err := c.Root()
	if err != nil || root == nil {
		t.Fatalf("root: %v %v", root, err)
	}
	return root
}

// TestTraceOpOverWire checks the wire trace command on a tracing server:
// the client gets the span forest behind its navigations, consecutive
// calls partition the stream, and a non-tracing server returns nothing.
func TestTraceOpOverWire(t *testing.T) {
	_, addr := start(t, server.WithTrace(true))
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(); err != nil { // discard the (lazy) root's trace
		t.Fatal(err)
	}
	if _, err := c.Down(root); err != nil {
		t.Fatal(err)
	}
	roots, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0].Label != trace.ClientLabel || roots[0].Op != "d" {
		t.Fatalf("want one client d root, got:\n%s", trace.Format(roots))
	}
	if trace.SourceNavigations(roots) == 0 {
		t.Fatalf("no source spans under the client navigation:\n%s", trace.Format(roots))
	}
	// Take semantics: the spans were consumed.
	again, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second trace returned %d roots", len(again))
	}
}

// TestTraceSessionsShareCatalog: concurrent traced sessions compile on
// one catalog, yet each trace holds exactly its own commands and the
// operator and source spans under them — the recorder is the
// session's, set per query, not the shared mediator's. Each session
// opens a view of its own, so no command is a cache hit.
func TestTraceSessionsShareCatalog(t *testing.T) {
	srv, addr := start(t, server.WithTrace(true))
	const sessions = 6
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := traceOwnCommands(addr, fmt.Sprintf(
				`CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H AND $H zip._ $Z AND $Z > "%d"`, i)); err != nil {
				t.Errorf("session %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if st := srv.Stats().Pool; st.Created != 1 {
		t.Fatalf("%d catalogs built, want the one every session shares", st.Created)
	}
}

// traceOwnCommands opens query on addr, navigates down and right from
// the root, and checks that the session's trace holds exactly those two
// client commands, each with source spans under it.
func traceOwnCommands(addr, query string) error {
	c, err := vxdp.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Open(query); err != nil {
		return err
	}
	root, err := c.Root()
	if err != nil {
		return err
	}
	if _, err := c.Trace(); err != nil {
		return err
	}
	child, err := c.Down(root)
	if err != nil {
		return err
	}
	if _, err := c.Right(child); err != nil {
		return err
	}
	roots, err := c.Trace()
	if err != nil {
		return err
	}
	ops := []string{"d", "r"}
	if len(roots) != len(ops) {
		return fmt.Errorf("%d trace roots, want %d:\n%s", len(roots), len(ops), trace.Format(roots))
	}
	for i, r := range roots {
		if r.Label != trace.ClientLabel || r.Op != ops[i] {
			return fmt.Errorf("root %d is %s %s, want client %s:\n%s", i, r.Label, r.Op, ops[i], trace.Format(roots))
		}
	}
	if trace.SourceNavigations(roots[:1]) == 0 {
		return fmt.Errorf("no source spans under the down:\n%s", trace.Format(roots))
	}
	return nil
}

func TestTraceOpDisabled(t *testing.T) {
	_, addr := start(t)
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Root(); err != nil {
		t.Fatal(err)
	}
	roots, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 0 {
		t.Fatalf("non-tracing server returned %d spans", len(roots))
	}
}

// TestHTTPSidecar exercises the mixd -http surface: /metrics reflects
// navigations as they happen, /healthz reports liveness, and the pprof
// index is mounted.
func TestHTTPSidecar(t *testing.T) {
	srv, addr := start(t, server.WithTrace(true))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	get := func(path string) (int, string) {
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
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	_, before := get("/metrics")
	for _, want := range []string{
		"mix_sessions_active 0",
		`mix_navigations_total{kind="down"} 0`,
		"mix_msgs_total 0",
		"mix_engine_pool_created_total 0", // the pool block is always present
	} {
		if !strings.Contains(before, want) {
			t.Fatalf("metrics missing %q:\n%s", want, before)
		}
	}

	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(joinQuery); err != nil {
		t.Fatal(err)
	}
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Down(root); err != nil {
		t.Fatal(err)
	}

	_, after := get("/metrics")
	for _, want := range []string{
		"mix_sessions_active 1",
		`mix_navigations_total{kind="down"} 1`,
		`mix_navigations_total{kind="root"} 1`,
		"mix_command_duration_seconds_count", // command latency histogram populated
		"mix_operator_duration_seconds",      // operator histograms (tracing on)
		"mix_fp_computed_total",              // allocation-path counters (PR 5)
		"mix_dfa_cache_hits_total",
		"mix_wire_buffer_gets_total",
		"mix_wire_buffer_allocs_total",
		"mix_heap_alloc_bytes_total",
		"mix_gc_pause_ns_total",
	} {
		if !strings.Contains(after, want) {
			t.Fatalf("metrics after navigation missing %q:\n%s", want, after)
		}
	}

	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", code)
	}
}
