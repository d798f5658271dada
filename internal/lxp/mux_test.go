package lxp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mix/internal/xmltree"
)

// gateServer answers Fill(id) with the single leaf id, so a caller can
// tell whose response it was handed. Requests whose id ends in an odd
// digit park on gate until it is closed; every handler entry and every
// parked request is reported.
type gateServer struct {
	gate    chan struct{}
	parked  chan string // receives the id of each request as it parks
	running atomic.Int64
	peak    atomic.Int64
}

func newGateServer() *gateServer {
	return &gateServer{gate: make(chan struct{}), parked: make(chan string, 1024)}
}

func (g *gateServer) GetRoot(string) (string, error) { return "root", nil }

func (g *gateServer) Fill(id string) ([]*xmltree.Tree, error) {
	n := g.running.Add(1)
	defer g.running.Add(-1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	if last := id[len(id)-1]; (last-'0')%2 == 1 {
		g.parked <- id
		<-g.gate
	}
	if strings.HasPrefix(id, "bad") {
		return nil, fmt.Errorf("no such hole %q", id)
	}
	return []*xmltree.Tree{xmltree.Leaf(id)}, nil
}

// serveTCP runs a TCPServer for srv, shut down when the test ends, and
// returns it with its address.
func serveTCP(t *testing.T, srv Server) (*TCPServer, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTCPServer(srv)
	done := make(chan error, 1)
	go func() { done <- ts.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ts.Shutdown(ctx)
		<-done
	})
	return ts, l.Addr().String()
}

// checkNoLeak fails the test if more goroutines are alive than before
// (after giving exiting ones a moment).
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

func fillOwn(c *Client, id string) error {
	trees, err := c.Fill(id)
	if err != nil {
		return err
	}
	if len(trees) != 1 || trees[0].Label != id {
		return fmt.Errorf("Fill(%q) was handed %v", id, trees)
	}
	return nil
}

// TestMuxOutOfOrder: one Client, 8 goroutines × 50 calls. The four
// goroutines issuing odd ids park in the handler on their first call;
// the four issuing even ids complete all of theirs meanwhile, on the
// same connection; once the gate opens the parked calls complete after
// calls sent later than them, and every caller is handed the response
// to its own request. The subtest runs it over the lean codec, LXP's
// only codec.
func TestMuxOutOfOrder(t *testing.T) {
	t.Run("lean=true", func(t *testing.T) {
		g := newGateServer()
		_, addr := serveTCP(t, g)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		const perGoroutine = 50
		run := func(wg *sync.WaitGroup, errs chan<- error, gr, parity int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				if err := fillOwn(c, fmt.Sprintf("g%d-%d", gr, 2*i+parity)); err != nil {
					errs <- err
					return
				}
			}
		}
		errs := make(chan error, 8)
		var odd, even sync.WaitGroup
		for gr := 0; gr < 4; gr++ {
			odd.Add(1)
			go run(&odd, errs, gr, 1)
		}
		for i := 0; i < 4; i++ {
			select {
			case <-g.parked:
			case <-time.After(5 * time.Second):
				t.Fatal("odd calls did not reach the handler")
			}
		}
		for gr := 4; gr < 8; gr++ {
			even.Add(1)
			go run(&even, errs, gr, 0)
		}
		evenDone := make(chan struct{})
		go func() { even.Wait(); close(evenDone) }()
		select {
		case <-evenDone:
		case <-time.After(5 * time.Second):
			t.Fatal("even calls queued behind the parked odd ones")
		}
		close(g.gate)
		odd.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestMuxRemoteErrorIsPerCall: an application-level error answers the
// call that caused it and no other; the connection survives.
func TestMuxRemoteErrorIsPerCall(t *testing.T) {
	g := newGateServer()
	close(g.gate)
	_, addr := serveTCP(t, g)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 0 {
				if _, err := c.Fill(fmt.Sprintf("bad%d", 2*i)); err == nil || !strings.Contains(err.Error(), "remote") {
					t.Errorf("bad hole: got %v, want a remote error", err)
				}
				return
			}
			if err := fillOwn(c, fmt.Sprintf("ok%d", 2*i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// outstanding starts k calls that park in g's handler and returns a
// channel delivering their results.
func outstanding(t *testing.T, c *Client, g *gateServer, k int) <-chan error {
	t.Helper()
	results := make(chan error, k)
	for i := 0; i < k; i++ {
		go func(i int) { results <- fillOwn(c, fmt.Sprintf("k%d", 2*i+1)) }(i)
	}
	for i := 0; i < k; i++ {
		select {
		case <-g.parked:
		case <-time.After(5 * time.Second):
			t.Fatal("calls did not reach the handler")
		}
	}
	return results
}

func wantAllFail(t *testing.T, results <-chan error, k int) {
	t.Helper()
	timeout := time.After(time.Second)
	for i := 0; i < k; i++ {
		select {
		case err := <-results:
			if err == nil {
				t.Error("an outstanding call succeeded on a dead connection")
			}
		case <-timeout:
			t.Fatalf("%d of %d outstanding calls still blocked after 1s", k-i, k)
		}
	}
}

// TestMuxCloseFailsOutstanding: Close with K calls outstanding fails
// all K promptly, later calls fail at once, and neither the reader nor
// any caller goroutine is left behind.
func TestMuxCloseFailsOutstanding(t *testing.T) {
	before := runtime.NumGoroutine()
	g := newGateServer()
	ts, addr := serveTCP(t, g)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const k = 12
	results := outstanding(t, c, g, k)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wantAllFail(t, results, k)
	if _, err := c.Fill("k0"); err == nil {
		t.Fatal("call on a closed client succeeded")
	}
	close(g.gate) // let the abandoned handlers finish
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	checkNoLeak(t, before)
}

// TestMuxPeerLossFailsOutstanding: the server dropping the connection
// with K calls outstanding fails all K promptly.
func TestMuxPeerLossFailsOutstanding(t *testing.T) {
	before := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const k = 12
	dropped := make(chan struct{})
	go func() {
		defer close(dropped)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		r := bufio.NewReader(conn)
		for i := 0; i < k; i++ { // swallow every request, answer none
			var req request
			if err := readRequest(r, &req); err != nil {
				break
			}
		}
		conn.Close()
	}()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, k)
	for i := 0; i < k; i++ {
		go func(i int) { results <- fillOwn(c, fmt.Sprintf("k%d", i)) }(i)
	}
	<-dropped
	wantAllFail(t, results, k)
	if _, err := c.GetRoot("u"); err == nil {
		t.Fatal("call after peer loss succeeded")
	}
	c.Close()
	checkNoLeak(t, before)
}

// TestMuxUnknownRidFailsConnection: a response nobody is waiting for (a
// peer that does not echo rids) cannot be delivered, so the connection
// fails instead of handing it to the wrong caller.
func TestMuxUnknownRidFailsConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		var req request
		if err := readRequest(r, &req); err != nil {
			return
		}
		_ = writeResponse(conn, &leanResponse{hole: "root"}) // no rid
		_ = readRequest(r, &req)                             // hold the conn until the client drops it
	}()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GetRoot("u"); err == nil || !strings.Contains(err.Error(), "unknown request id") {
		t.Fatalf("got %v, want an unknown-request-id failure", err)
	}
}

// TestMuxShutdownWaitsForInFlight: Shutdown lets every request already
// being served finish and deliver its response before the connection
// closes.
func TestMuxShutdownWaitsForInFlight(t *testing.T) {
	g := newGateServer()
	ts, addr := serveTCP(t, g)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const k = 6
	results := outstanding(t, c, g, k)

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- ts.Shutdown(ctx)
	}()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with %d handlers still running", err, k)
	case <-time.After(100 * time.Millisecond):
	}
	close(g.gate)
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < k; i++ {
		if err := <-results; err != nil {
			t.Errorf("in-flight call lost to a graceful shutdown: %v", err)
		}
	}
	if _, err := c.Fill("k0"); err == nil {
		t.Fatal("request on a drained connection succeeded")
	}
}

// TestMuxInFlightCapBackPressures: a client flooding one connection
// never has more than maxInFlight requests inside the handler; the rest
// wait in the socket and are all served once the gate opens.
func TestMuxInFlightCapBackPressures(t *testing.T) {
	g := newGateServer()
	_, addr := serveTCP(t, g)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const flood = 3 * maxInFlight
	results := make(chan error, flood)
	for i := 0; i < flood; i++ {
		go func(i int) { results <- fillOwn(c, fmt.Sprintf("f%d", 2*i+1)) }(i)
	}
	for i := 0; i < maxInFlight; i++ {
		select {
		case <-g.parked:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d requests reached the handler, want %d", i, maxInFlight)
		}
	}
	select {
	case id := <-g.parked:
		t.Fatalf("request %s entered the handler beyond the cap of %d", id, maxInFlight)
	case <-time.After(100 * time.Millisecond):
	}
	close(g.gate)
	for i := 0; i < flood; i++ {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
	if peak := g.peak.Load(); peak > maxInFlight {
		t.Fatalf("%d requests in the handler at once, cap is %d", peak, maxInFlight)
	}
}

// TestMuxRidByteIdentity: with a rid set, the lean encoders still
// produce exactly json.Marshal's bytes, both decoders read the rid
// back, and a zero rid leaves the pre-multiplexing bytes untouched.
func TestMuxRidByteIdentity(t *testing.T) {
	for _, rid := range []uint64{0, 1, 7, 1 << 40, ^uint64(0)} {
		for name, req := range codecRequests() {
			req.Rid = rid
			var buf bytes.Buffer
			encodeRequest(&buf, req)
			want, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s rid=%d: lean request diverges\n got: %s\nwant: %s", name, rid, buf.Bytes(), want)
			}
			if (rid == 0) == bytes.Contains(want, []byte(`"rid"`)) {
				t.Errorf("%s rid=%d: omitempty broken: %s", name, rid, want)
			}
			got, err := decodeRequest(want)
			if err != nil || got.Rid != rid {
				t.Errorf("%s: decoded rid %d (%v), want %d", name, got.Rid, err, rid)
			}
		}
		for name, lr := range codecResponses() {
			lr.rid = rid
			var buf bytes.Buffer
			encodeResponse(&buf, &lr)
			want, err := json.Marshal(wireFromLean(lr))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s rid=%d: lean response diverges\n got: %s\nwant: %s", name, rid, buf.Bytes(), want)
			}
			var got leanResponse
			if err := decodeResponse(want, nil, nil, &got); err != nil || got.rid != rid {
				t.Errorf("%s: decoded rid %d (%v), want %d", name, got.rid, err, rid)
			}
		}
	}
	// Whatever encoding/json takes for a uint64 the lean decoder takes
	// too, and nothing else.
	for payload, ok := range map[string]bool{
		`{"rid":12,"op":"fill"}`: true, `{"rid": 0 }`: true, `{"rid":null}`: true,
		`{"rid":-1}`: false, `{"rid":1.5}`: false, `{"rid":1e3}`: false, `{"rid":"1"}`: false,
		`{"rid":01}`: false, `{"rid":18446744073709551616}`: false, `{"rid":}`: false,
	} {
		var want request
		if oracle := json.Unmarshal([]byte(payload), &want) == nil; oracle != ok {
			t.Fatalf("test table wrong about %s", payload)
		}
		got, err := decodeRequest([]byte(payload))
		if (err == nil) != ok || (ok && got.Rid != want.Rid) {
			t.Errorf("decodeRequest(%s) = rid %d, %v; encoding/json: rid %d, ok=%v", payload, got.Rid, err, want.Rid, ok)
		}
		var lr leanResponse
		if err := decodeResponse([]byte(payload), nil, nil, &lr); (err == nil) != ok || (ok && lr.rid != want.Rid) {
			t.Errorf("decodeResponse(%s) = rid %d, %v; want rid %d, ok=%v", payload, lr.rid, err, want.Rid, ok)
		}
	}
}
