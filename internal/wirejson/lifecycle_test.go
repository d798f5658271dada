package wirejson

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// stubListener hands out what its script returns, one entry per Accept,
// then blocks until it is closed and reports net.ErrClosed.
type stubListener struct {
	script []func() (net.Conn, error)
	closed chan struct{}
	once   sync.Once
}

func (l *stubListener) Accept() (net.Conn, error) {
	if len(l.script) > 0 {
		next := l.script[0]
		l.script = l.script[1:]
		return next()
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *stubListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *stubListener) Addr() net.Addr { return &net.TCPAddr{} }

// readUntilErr serves a connection by reading until a read fails: the
// drain's wake-up deadline ends it.
func readUntilErr(conn net.Conn) {
	buf := make([]byte, 1)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// ignoreDeadline serves a connection by reading until it is closed,
// clearing every read deadline it meets: only a force-close ends it.
func ignoreDeadline(conn net.Conn) {
	buf := make([]byte, 1)
	for {
		_, err := conn.Read(buf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			_ = conn.SetReadDeadline(time.Time{})
			continue
		}
		if err != nil {
			return
		}
	}
}

// TestLifecycle runs each branch of the connection lifecycle once, with
// no timing in play: a stub listener scripts what Accept returns, the
// drain is begun where the script says, and each case checks what Serve
// and Shutdown return, whether accept saw the connection, and that the
// connection ends closed.
func TestLifecycle(t *testing.T) {
	boom := errors.New("accept failed")
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	// A drain that works returns at once; the bound only turns one that
	// never ends into a failure.
	bounded, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	for _, c := range []struct {
		name string
		// shutdownFirst runs Shutdown before Serve, on a closed listener.
		shutdownFirst bool
		// drainInAccept begins the drain inside the first Accept, before
		// it returns the connection.
		drainInAccept bool
		// acceptErr is what Accept returns after the connection; nil
		// waits for the listener to close.
		acceptErr error
		// serve serves an accepted connection; nil turns it away.
		serve func(net.Conn)
		// drain runs Shutdown with ctx once the connection is accepted.
		drain        bool
		ctx          context.Context
		wantServe    error
		wantShutdown error
		wantAccepted bool
	}{
		{name: "serve after shutdown", shutdownFirst: true, wantServe: ErrShutDown},
		{name: "accepted after the drain began", drainInAccept: true},
		{name: "turned away, then an accept error", acceptErr: boom, wantServe: boom, wantAccepted: true},
		{name: "clean drain", serve: readUntilErr, drain: true, ctx: bounded, wantAccepted: true},
		{name: "drain expires", serve: ignoreDeadline, drain: true, ctx: expired,
			wantShutdown: context.Canceled, wantAccepted: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var lc Lifecycle
			conn, peer := net.Pipe()
			defer peer.Close()
			l := &stubListener{closed: make(chan struct{})}
			if c.shutdownFirst {
				l.Close()
				if err := lc.Shutdown(context.Background()); err != nil {
					t.Fatalf("Shutdown before Serve = %v", err)
				}
			} else {
				l.script = append(l.script, func() (net.Conn, error) {
					if c.drainInAccept {
						if err := lc.Shutdown(context.Background()); err != nil {
							t.Errorf("Shutdown with nothing to drain = %v", err)
						}
					}
					return conn, nil
				})
			}
			if c.acceptErr != nil {
				l.script = append(l.script, func() (net.Conn, error) { return nil, c.acceptErr })
			}
			accepted := make(chan net.Conn, 1)
			accept := func(conn net.Conn) func() {
				accepted <- conn
				if c.serve == nil {
					return nil
				}
				return func() { c.serve(conn) }
			}
			served := make(chan error, 1)
			go func() { served <- lc.Serve(l, accept) }()
			if c.wantAccepted {
				<-accepted // the connection is tracked
			}
			if c.drain {
				if err := lc.Shutdown(c.ctx); !errors.Is(err, c.wantShutdown) {
					t.Errorf("Shutdown = %v, want %v", err, c.wantShutdown)
				}
				if !lc.Draining() {
					t.Error("Draining is false after Shutdown")
				}
			}
			if err := <-served; !errors.Is(err, c.wantServe) {
				t.Errorf("Serve = %v, want %v", err, c.wantServe)
			}
			if !c.wantAccepted && len(accepted) > 0 {
				t.Error("accept saw a connection the drain should have refused")
			}
			if c.shutdownFirst {
				return
			}
			// The lifecycle closed the connection: its peer reads EOF. The
			// deadline only bounds a failure.
			_ = peer.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("peer read %v, want EOF: the connection was left open", err)
			}
		})
	}
}
