package lxp

import (
	"bufio"
	"context"
	"log/slog"
	"net"
	"sync"
	"time"

	"mix/internal/wirejson"
)

// maxInFlight bounds the requests of one connection being served at
// once. At the cap the connection's reader stops reading, so a client
// that floods is held back by TCP instead of growing goroutines here.
const maxInFlight = 64

// TCPServer serves LXP over TCP. Each connection's requests are
// dispatched concurrently — one goroutine per request, at most
// maxInFlight per connection — and answered in completion order, each
// response echoing its request's rid, so Srv sees concurrent calls even
// from a single client. Connections run the wire servers' one lifecycle
// (wirejson.Lifecycle): Shutdown stops the accept loop, lets every
// request already being served finish and send its response, and waits
// for the drained connections to close (force-closing the stragglers
// when the context expires). cmd/lxpd uses it to turn SIGINT/SIGTERM
// into a clean exit.
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

	conns wirejson.Lifecycle
}

// NewTCPServer returns a TCPServer for srv.
func NewTCPServer(srv Server) *TCPServer { return &TCPServer{Srv: srv} }

// Serve accepts connections on l until Shutdown is called or the
// listener fails. It returns nil after a clean Shutdown.
func (t *TCPServer) Serve(l net.Listener) error {
	return t.conns.Serve(l, func(conn net.Conn) func() {
		return func() { t.serveConn(conn) }
	})
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
// still being served (the lifecycle closes the connection after).
func (t *TCPServer) serveConn(conn net.Conn) {
	sc := &servedConn{t: t, conn: conn, w: frameWriter{w: conn}, slots: make(chan struct{}, maxInFlight)}
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
// deadline in the past), and waits for all in-flight requests to drain.
// If ctx expires first the remaining connections are force-closed and
// ctx.Err() is returned.
func (t *TCPServer) Shutdown(ctx context.Context) error { return t.conns.Shutdown(ctx) }
