package lxp

import (
	"bufio"
	"context"
	"errors"
	"log/slog"
	"net"
	"sync"
	"time"
)

// maxInFlight bounds the requests of one connection being served at
// once. At the cap the connection's reader stops reading, so a client
// that floods is held back by TCP instead of growing goroutines here.
const maxInFlight = 64

// TCPServer serves LXP over TCP. Each connection's requests are
// dispatched concurrently — one goroutine per request, at most
// maxInFlight per connection — and answered in completion order, each
// response echoing its request's rid, so Srv sees concurrent calls even
// from a single client. Connections are tracked for graceful shutdown:
// Shutdown stops the accept loop, lets every request already being
// served finish and send its response, and waits for the drained
// connections to close (force-closing the stragglers when the context
// expires). cmd/lxpd uses it to turn SIGINT/SIGTERM into a clean exit.
type TCPServer struct {
	// Srv answers the protocol requests.
	Srv Server
	// SlowThreshold, when > 0, logs every request that took at least
	// this long to serve — the wrapper-side counterpart of mixd's
	// slow-navigation flight recorder, so a slow fleet trace whose time
	// sits under src: spans can be chased into the wrapper's own log.
	SlowThreshold time.Duration
	// Logger receives the slow-request warnings (slog.Default when nil).
	Logger *slog.Logger

	mu       sync.Mutex
	l        net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// NewTCPServer returns a TCPServer for srv.
func NewTCPServer(srv Server) *TCPServer {
	return &TCPServer{Srv: srv, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections on l until Shutdown is called or the
// listener fails. It returns nil after a clean Shutdown.
func (t *TCPServer) Serve(l net.Listener) error {
	t.mu.Lock()
	if t.draining {
		t.mu.Unlock()
		return errors.New("lxp: server already shut down")
	}
	t.l = l
	t.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			t.mu.Lock()
			draining := t.draining
			t.mu.Unlock()
			if draining && errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !t.track(conn) {
			conn.Close()
			continue
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer t.untrack(conn)
			t.serveConn(conn)
		}()
	}
}

func (t *TCPServer) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *TCPServer) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// servedConn is one connection being served: what its request
// goroutines share.
type servedConn struct {
	t        *TCPServer
	conn     net.Conn
	w        frameWriter
	slots    chan struct{} // one token per request being served
	handlers sync.WaitGroup
}

// serveConn reads requests until the connection fails, the peer hangs
// up or Shutdown's read deadline fires, then waits for the requests
// still being served before closing the connection.
func (t *TCPServer) serveConn(conn net.Conn) {
	sc := &servedConn{t: t, conn: conn, w: frameWriter{w: conn}, slots: make(chan struct{}, maxInFlight)}
	defer conn.Close()
	defer sc.handlers.Wait()
	r := bufio.NewReader(conn)
	var req request // one for the connection: each request goroutine gets a copy
	for {
		req = request{}
		if err := readRequest(r, &req); err != nil {
			return
		}
		sc.slots <- struct{}{}
		sc.handlers.Add(1)
		go sc.serve(req)
	}
}

// serve answers one request and frees its slot.
func (sc *servedConn) serve(req request) {
	defer sc.handlers.Done()
	start := time.Now()
	lr := answerRequest(req, sc.t.Srv)
	lr.rid = req.Rid
	err := writeResponse(&sc.w, &lr)
	<-sc.slots
	if err != nil {
		// Part of a frame may be on the wire: the stream is lost.
		// Closing wakes the read loop.
		sc.conn.Close()
	}
	if d := time.Since(start); sc.t.SlowThreshold > 0 && d >= sc.t.SlowThreshold {
		log := sc.t.Logger
		if log == nil {
			log = slog.Default()
		}
		log.Warn("lxp: slow request", "op", req.Op, "uri", req.URI,
			"ids", len(req.IDs), "dur", d.Round(time.Microsecond).String())
	}
}

// Shutdown stops accepting, stops every connection's reader (a read
// deadline in the past), and waits for all in-flight requests to drain. If ctx expires first the remaining
// connections are force-closed and ctx.Err() is returned.
func (t *TCPServer) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	t.draining = true
	l := t.l
	open := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		open = append(open, c)
	}
	t.mu.Unlock()

	if l != nil {
		l.Close()
	}
	for _, c := range open {
		_ = c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-close the stragglers. Handlers stuck inside Srv (not
		// blocked on the connection) are abandoned, not awaited: the
		// caller is exiting.
		t.mu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.mu.Unlock()
		return ctx.Err()
	}
}
