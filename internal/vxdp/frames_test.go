package vxdp_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mix/internal/nav"
	"mix/internal/vxdp"
	"mix/internal/xmltree"
)

// TestClientCloseIdempotent: Close returns the client's frame buffers
// once; a second Close, and every command after the first — also one
// a read-ahead window answered before — returns net.ErrClosed without
// touching the connection or a buffer.
func TestClientCloseIdempotent(t *testing.T) {
	_, addr := startServer(t)
	c := dialOpen(t, addr, joinQuery)
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Down(root)
	if err != nil || first == nil {
		t.Fatalf("Down(root) = %v, %v", first, err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	calls := map[string]func() error{
		"Close": c.Close,
		"Open":  func() error { return c.Open(joinQuery) },
		"Root":  func() error { _, err := c.Root(); return err },
		"Down":  func() error { _, err := c.Down(root); return err },
		"Right": func() error { _, err := c.Right(first); return err },
		"Fetch": func() error { _, err := c.Fetch(root); return err },
		"SelectLabel": func() error {
			_, err := c.SelectLabel(first, "med_home", true)
			return err
		},
		"Trace":      func() error { _, err := c.Trace(); return err },
		"Ping":       func() error { _, err := c.Ping(); return err },
		"RegionGet":  func() error { _, err := c.RegionGet(vxdp.RegionKey{}); return err },
		"RegionPut":  func() error { return c.RegionPut(vxdp.RegionKey{}, nil) },
		"Invalidate": func() error { _, err := c.Invalidate(1); return err },
		"Slow":       func() error { _, err := c.Slow(); return err },
		"Stats":      func() error { _, err := c.Stats(); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, net.ErrClosed) {
			t.Errorf("%s after Close: %v, want net.ErrClosed", name, err)
		}
	}
}

// TestPooledFramesSessions: two goroutines run sequential sessions —
// dial, open, navigate, close — against one server, so both ends hand
// their frame buffers on from session to session. Every answer equals
// the one evaluated in process, which crosses no frame buffer. Under
// -race, a pair held by two live connections at once is a data race;
// Frames.Release panics on a pair released twice.
func TestPooledFramesSessions(t *testing.T) {
	_, addr := startServer(t)
	want := xmltree.MarshalXML(localAnswer(t, joinQuery))
	const sessions = 20
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sessions; i++ {
				if err := pooledSession(addr, want); err != nil {
					errs <- fmt.Errorf("goroutine %d, session %d: %w", g, i, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("sessions stuck: two connections reading one frame buffer pair?")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func pooledSession(addr, want string) error {
	c, err := vxdp.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Open(joinQuery); err != nil {
		return err
	}
	got, err := nav.Materialize(c)
	if err != nil {
		return err
	}
	if s := xmltree.MarshalXML(got); s != want {
		return fmt.Errorf("answer %s, want %s", s, want)
	}
	return c.Close()
}
