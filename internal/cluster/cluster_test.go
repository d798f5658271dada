package cluster

import (
	"bytes"
	"errors"
	"log/slog"
	"net"
	"runtime"
	"testing"
	"time"

	"mix/internal/regioncache"
	"mix/internal/vxdp"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}

func TestNodeSingleMemberDegradesToLocal(t *testing.T) {
	cache := regioncache.New(0)
	n, err := New(Config{Self: "127.0.0.1:7800", Logger: quietLogger()}, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if got := n.Owner("homeview", "fp"); got != "127.0.0.1:7800" {
		t.Fatalf("single node does not own its keys: %q", got)
	}
	if !n.Alive("127.0.0.1:7800") {
		t.Fatal("self not alive")
	}
	if reg := n.Fetch(regioncache.Key{Name: "homeview", Fingerprint: "fp"}); reg != nil {
		t.Fatal("single node fetched a region from nowhere")
	}
	n.Flush() // must be a no-op, not a hang or panic
	st := n.Stats()
	if st.Members != 1 || st.PeersUp != 0 || st.PeersDown != 0 {
		t.Fatalf("unexpected membership stats: %+v", st)
	}
}

// loopGoroutines counts the goroutines Start created — a node's health
// and flush loops — whether or not they have begun to run.
func loopGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by mix/internal/cluster.(*Node).Start "))
}

// TestStartAfterStopLaunchesNothing: a Start that comes after Stop — a
// server's Serve that lost a race with its Shutdown — launches no loop.
// A loop launched then would see Stop's signal and end at once, so the
// goroutines are counted on one processor, before any could run.
func TestStartAfterStopLaunchesNothing(t *testing.T) {
	n, err := New(Config{Self: "127.0.0.1:7800", Logger: quietLogger()}, regioncache.New(0))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := loopGoroutines()
	n.Stop()
	n.Start()
	if got := loopGoroutines(); got > before {
		t.Fatalf("Start after Stop launched %d loop(s)", got-before)
	}
}

func TestNodeRequiresCacheAndSelf(t *testing.T) {
	if _, err := New(Config{Self: "a:1"}, nil); err == nil {
		t.Fatal("New without cache succeeded")
	}
	if _, err := New(Config{}, regioncache.New(0)); err == nil {
		t.Fatal("New without self succeeded")
	}
	if _, err := New(Config{Self: "a:1", Mode: Mode("gossip")}, regioncache.New(0)); err == nil {
		t.Fatal("New with bogus mode succeeded")
	}
}

// TestPeerFailureMarksDownWithBackoff drives a peer at an address
// nothing listens on: after FailAfter consecutive dial failures it must
// be down, fail fast during backoff, and re-probe after it expires.
func TestPeerFailureMarksDownWithBackoff(t *testing.T) {
	cfg := Config{
		Self:        "127.0.0.1:7800",
		Peers:       []string{"127.0.0.1:1"}, // nothing listens here
		FailAfter:   2,
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 200 * time.Millisecond,
		MaxBackoff:  time.Second,
		Logger:      quietLogger(),
	}
	cfg.fill()
	p := newPeer("127.0.0.1:1", cfg)
	noop := func(c *vxdp.Client) error { return nil }
	// First failure: not yet down (FailAfter=2).
	if err := p.do(noop); err == nil {
		t.Fatal("dial to 127.0.0.1:1 succeeded")
	}
	if !p.alive() {
		t.Fatal("peer down after a single failure with FailAfter=2")
	}
	// Second failure: down, with backoff armed.
	if err := p.do(noop); err == nil {
		t.Fatal("dial to 127.0.0.1:1 succeeded")
	}
	if p.alive() {
		t.Fatal("peer still up after FailAfter failures")
	}
	// Inside the backoff window calls fail fast with errPeerDown.
	if err := p.do(noop); !errors.Is(err, errPeerDown) {
		t.Fatalf("call during backoff: got %v, want errPeerDown", err)
	}
}

// TestNodeFetchSkipsDownPeer: a Fetch routed at a down owner must miss
// locally instead of blocking on a dial.
func TestNodeFetchSkipsDownPeer(t *testing.T) {
	cache := regioncache.New(0)
	n, err := New(Config{
		Self:        "127.0.0.1:7800",
		Peers:       []string{"127.0.0.1:1"},
		FailAfter:   1,
		DialTimeout: 200 * time.Millisecond,
		Logger:      quietLogger(),
	}, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	p := n.peers["127.0.0.1:1"]
	p.noteFailure(errors.New("test: induced"))
	if p.alive() {
		t.Fatal("peer still alive after induced failure with FailAfter=1")
	}
	// Find a key the dead peer owns, then fetch it.
	var k regioncache.Key
	found := false
	for i := 0; i < 1000 && !found; i++ {
		k = regioncache.Key{Name: "v", Fingerprint: string(rune('a' + i%26))}
		k.Fingerprint = k.Fingerprint + string(rune('0'+i/26))
		if n.Owner(k.Name, k.Fingerprint) == "127.0.0.1:1" {
			found = true
		}
	}
	if !found {
		t.Skip("no probe key routed to the peer (vanishingly unlikely)")
	}
	start := time.Now()
	if reg := n.Fetch(k); reg != nil {
		t.Fatal("fetched a region from a down peer")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("fetch against a down peer took %v; want immediate local miss", d)
	}
	if n.Stats().L2Misses != 0 {
		// Down-peer short-circuit is not an L2 miss: no peer was asked.
		t.Fatalf("down-peer fetch counted as L2 miss: %+v", n.Stats())
	}
}

// TestDroppedLinkReleasesFrames: a control link dropped after a
// transport failure returns its frame buffers — the old client answers
// net.ErrClosed itself, before touching the closed connection (which
// would fail with an error that only wraps it) — and the next call
// dials a fresh link.
func TestDroppedLinkReleasesFrames(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conn.Close() // a peer that dies on every call
		}
	}()
	cfg := Config{
		Self:        "127.0.0.1:7800",
		FailAfter:   3,
		DialTimeout: time.Second,
		CallTimeout: time.Second,
		MaxBackoff:  time.Second,
		Logger:      quietLogger(),
	}
	cfg.fill()
	p := newPeer(l.Addr().String(), cfg)
	var old *vxdp.Client
	ping := func(c *vxdp.Client) error {
		old = c
		_, err := c.Ping()
		return err
	}
	if err := p.do(ping); err == nil || errors.Is(err, vxdp.ErrRemote) {
		t.Fatalf("ping of a dead link: %v, want a transport error", err)
	}
	first := old
	if p.client != nil || p.conn != nil {
		t.Fatal("failed link kept")
	}
	if _, err := first.Ping(); err != net.ErrClosed {
		t.Fatalf("dropped client's Ping: %v, want net.ErrClosed", err)
	}
	if err := first.Close(); err != net.ErrClosed {
		t.Fatalf("dropped client's Close: %v, want net.ErrClosed", err)
	}
	if err := p.do(ping); err == nil {
		t.Fatal("ping of a dead link succeeded")
	}
	if old == first {
		t.Fatal("the call after a drop reused the dropped client")
	}
	p.close()
}
