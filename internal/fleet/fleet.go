// Package fleet boots in-process mixd fleets on loopback listeners: n
// servers that form one consistent-hash ring (internal/cluster), or a
// single standalone server when n is 1. Experiments and tests use it to
// run a fleet without repeating how one is wired.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"mix/internal/cluster"
	"mix/internal/regioncache"
	"mix/internal/server"
)

// Member is one running server of a fleet.
type Member struct {
	Server *server.Server
	// Node is the member's cluster node (nil when the fleet has one
	// member, which runs standalone).
	Node *cluster.Node
	// Addr is the loopback address the member serves on, which is also
	// its advertised cluster address.
	Addr string

	done    chan error
	stopped bool
}

// Fleet is a running set of members. It is not safe for concurrent
// Stop and Close calls.
type Fleet struct {
	Members []*Member
	// probe is member 0's factory, which Owner compiles queries with.
	probe server.Factory
}

// Start listens on n loopback ports, then boots one server per port.
// member(i) supplies member i's factory and server options. For n > 1
// each member gets a cluster node built from tmpl over an unbounded
// region cache of its own, with Self and Peers filled in from the ports
// and a discarding logger when tmpl has none; the server owns the node
// and serves from its cache, so the options must not name another. For
// n == 1 the server runs standalone: no node, and a region cache only
// if the options install one. Start returns once every member accepts;
// on error every member already started is stopped.
func Start(n int, tmpl cluster.Config, member func(i int) (server.Factory, []server.Option)) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: %d members", n)
	}
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i], addrs[i] = l, l.Addr().String()
	}
	if tmpl.Logger == nil {
		tmpl.Logger = slog.New(slog.DiscardHandler)
	}
	f := &Fleet{}
	for i, l := range listeners {
		factory, opts := member(i)
		if i == 0 {
			f.probe = factory
		}
		m, err := newMember(addrs, i, tmpl, factory, opts)
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			f.Close()
			return nil, fmt.Errorf("fleet: member %d: %w", i, err)
		}
		al := &acceptingListener{Listener: l, accepting: make(chan struct{})}
		go func() { m.done <- m.Server.Serve(al) }()
		<-al.accepting
		f.Members = append(f.Members, m)
	}
	return f, nil
}

// newMember builds the server of member i of the fleet at addrs, with a
// cluster node from tmpl when the fleet has more than one member.
func newMember(addrs []string, i int, tmpl cluster.Config, factory server.Factory, opts []server.Option) (*Member, error) {
	m := &Member{Addr: addrs[i], done: make(chan error, 1)}
	if len(addrs) > 1 {
		tmpl.Self = addrs[i]
		tmpl.Peers = append(append([]string{}, addrs[:i]...), addrs[i+1:]...)
		node, err := cluster.New(tmpl, regioncache.New(0))
		if err != nil {
			return nil, err
		}
		m.Node = node
		opts = append(opts[:len(opts):len(opts)], server.WithCluster(node))
	}
	var err error
	m.Server, err = server.New(factory, opts...)
	return m, err
}

// acceptingListener closes accepting at the first Accept call, so Start
// returns only once every server is serving, and a Stop right after
// Start cannot beat Serve to the listener.
type acceptingListener struct {
	net.Listener
	once      sync.Once
	accepting chan struct{}
}

func (l *acceptingListener) Accept() (net.Conn, error) {
	l.once.Do(func() { close(l.accepting) })
	return l.Listener.Accept()
}

// Stop shuts member i down: its sessions drain, its node stops, and its
// peers see its links close and, at their next health checks, mark it
// down. Stopping a stopped member does nothing.
func (f *Fleet) Stop(i int) error {
	m := f.Members[i]
	if m.stopped {
		return nil
	}
	m.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := m.Server.Shutdown(ctx)
	return errors.Join(err, <-m.done) // Shutdown closed the listener: Serve returns
}

// Close stops every member still running and returns the errors.
func (f *Fleet) Close() error {
	var errs []error
	for i := range f.Members {
		errs = append(errs, f.Stop(i))
	}
	return errors.Join(errs...)
}

// Owner returns the index of the member owning query's routing key. It
// compiles the query on an engine from member 0's factory with no cache
// (no source is navigated) and reads member 0's ring; a one-member
// fleet owns every key.
func (f *Fleet) Owner(query string) (int, error) {
	m, err := f.probe(nil)
	if err != nil {
		return 0, err
	}
	res, err := m.Query(query)
	if err != nil {
		return 0, err
	}
	node := f.Members[0].Node
	if node == nil {
		return 0, nil
	}
	owner := node.Owner(res.CacheKey())
	for i, m := range f.Members {
		if m.Addr == owner {
			return i, nil
		}
	}
	return 0, fmt.Errorf("fleet: owner %s is not a member", owner)
}
