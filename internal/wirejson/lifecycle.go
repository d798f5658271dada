package wirejson

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrShutDown is what Serve returns when Shutdown came first.
var ErrShutDown = errors.New("server already shut down")

// Lifecycle is the connection lifecycle both wire servers run: accept
// and track each connection, serve it on a goroutine of its own, and
// drain on Shutdown — stop accepting, wake every reader, wait for the
// connections, force-closing them when the caller's context expires.
// What a server does with a connection is its own (the accept function
// Serve is given); how connections start and end is here. The zero
// value is ready to use.
type Lifecycle struct {
	mu       sync.Mutex
	l        net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool // set under mu (track checks it there), read lock-free by Draining
	wg       sync.WaitGroup
}

// Serve accepts connections on l until Shutdown is called or l fails.
// It returns nil after a clean Shutdown, and ErrShutDown at once when
// Shutdown came first. Each connection accepted before the drain began
// is handed to accept on the accept loop, which returns the function
// that serves it on a goroutine of its own, or nil to turn it away
// (accept has answered it). A connection is closed when it is turned
// away, accepted after the drain began, or served to the end.
func (lc *Lifecycle) Serve(l net.Listener, accept func(net.Conn) func()) error {
	lc.mu.Lock()
	if lc.draining.Load() {
		lc.mu.Unlock()
		return ErrShutDown
	}
	lc.l = l
	lc.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if lc.draining.Load() && errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !lc.track(conn) {
			conn.Close()
			continue
		}
		serve := accept(conn)
		if serve == nil {
			lc.done(conn)
			continue
		}
		go func() {
			defer lc.done(conn)
			serve()
		}()
	}
}

// track registers conn, unless the drain has begun. The wait group is
// raised under the same lock, so a Shutdown that follows waits for it.
func (lc *Lifecycle) track(conn net.Conn) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.draining.Load() {
		return false
	}
	if lc.conns == nil {
		lc.conns = map[net.Conn]struct{}{}
	}
	lc.conns[conn] = struct{}{}
	lc.wg.Add(1)
	return true
}

// done closes and forgets a tracked connection.
func (lc *Lifecycle) done(conn net.Conn) {
	lc.mu.Lock()
	delete(lc.conns, conn)
	lc.mu.Unlock()
	conn.Close()
	lc.wg.Done()
}

// Draining reports whether Shutdown has been called.
func (lc *Lifecycle) Draining() bool { return lc.draining.Load() }

// Shutdown drains: Serve stops accepting, every tracked connection's
// reader is woken by a read deadline in the past (a request being
// served still gets its response), and Shutdown waits for the serving
// functions to return. If ctx expires first, the connections still
// open are closed and ctx.Err() is returned; a serving function stuck
// elsewhere than on its connection is abandoned, not awaited.
func (lc *Lifecycle) Shutdown(ctx context.Context) error {
	lc.mu.Lock()
	lc.draining.Store(true)
	l := lc.l
	lc.mu.Unlock()
	if l != nil {
		l.Close()
	}
	now := time.Now()
	for _, c := range lc.tracked() {
		_ = c.SetReadDeadline(now)
	}

	done := make(chan struct{})
	go func() {
		lc.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, c := range lc.tracked() {
			c.Close()
		}
		return ctx.Err()
	}
}

// tracked returns the connections being served.
func (lc *Lifecycle) tracked() []net.Conn {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	open := make([]net.Conn, 0, len(lc.conns))
	for c := range lc.conns {
		open = append(open, c)
	}
	return open
}
