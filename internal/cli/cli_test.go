package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"
)

func TestExit(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	badFlag := Parse(fs, []string{"-bogus"})
	for _, c := range []struct {
		err  error
		code int
		out  string
	}{
		{nil, 0, ""},
		{flag.ErrHelp, 0, ""},
		{Usage(errors.New("no query")), 2, "cmd: no query\n"},
		{badFlag, 2, ""}, // the flag package printed it
		{fmt.Errorf("reading: %w", errors.New("gone")), 1, "cmd: reading: gone\n"},
	} {
		var out strings.Builder
		if code := Exit("cmd", c.err, &out); code != c.code || out.String() != c.out {
			t.Errorf("Exit(%v) = %d, %q; want %d, %q", c.err, code, out.String(), c.code, c.out)
		}
	}
}

// fakeServer serves until Shutdown, or fails at once with serveErr;
// its Shutdown returns shutdownErr.
type fakeServer struct {
	serveErr, shutdownErr error
	stop                  chan struct{}
}

func (f *fakeServer) Serve(net.Listener) error {
	if f.serveErr != nil {
		return f.serveErr
	}
	<-f.stop
	return nil
}

func (f *fakeServer) Shutdown(context.Context) error {
	close(f.stop)
	return f.shutdownErr
}

// TestServe: a cancelled Serve drains and returns nil, logging a
// shutdown that expired; a server that fails on its own is shut down
// too, and its error returned.
func TestServe(t *testing.T) {
	boom := errors.New("accept failed")
	for _, c := range []struct {
		srv  *fakeServer
		want error
		log  []string
	}{
		{&fakeServer{shutdownErr: context.DeadlineExceeded, stop: make(chan struct{})}, nil,
			[]string{"signal received; draining sessions", "shutdown expired; sessions force-closed"}},
		{&fakeServer{serveErr: boom, stop: make(chan struct{})}, boom, []string{"msg=serve", "accept failed"}},
	} {
		var log strings.Builder
		ctx, cancel := context.WithCancel(context.Background())
		if c.srv.serveErr == nil {
			cancel()
		}
		err := Serve(ctx, slog.New(slog.NewTextHandler(&log, nil)), c.srv, nil, time.Second, "sessions")
		cancel()
		if err != c.want {
			t.Errorf("Serve = %v, want %v", err, c.want)
		}
		for _, want := range c.log {
			if !strings.Contains(log.String(), want) {
				t.Errorf("log lacks %q:\n%s", want, log.String())
			}
		}
	}
}
