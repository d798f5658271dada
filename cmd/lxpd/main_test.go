package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mix/internal/cli"
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// TestLxpdFlags pins lxpd's command line, as -help lists it: adding,
// renaming or removing a knob is a deliberate edit of this list.
func TestLxpdFlags(t *testing.T) {
	want := []string{
		"addr", "chunk", "demo", "file", "grace", "inline", "log-json",
		"log-level", "n", "slow-ms",
	}
	var usage strings.Builder
	if err := run(context.Background(), []string{"-help"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("lxpd -help: %v", err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		got = append(got, m[1])
	}
	if !slices.Equal(got, want) {
		t.Fatalf("lxpd flags = %d %q, want %d %q", len(got), got, len(want), want)
	}
}

// logTap is lxpd's stderr under test: it keeps the log and passes on
// the address of the line that announces the listener.
type logTap struct {
	mu    sync.Mutex
	log   strings.Builder
	addrs chan string
}

var announce = regexp.MustCompile(`msg=serving addr=(\S+)`)

func (l *logTap) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log.Write(p)
	if m := announce.FindSubmatch(p); m != nil {
		l.addrs <- string(m[1])
	}
	return len(p), nil
}

func (l *logTap) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.String()
}

// serve runs lxpd with args; it returns the address it serves and
// stop, which cancels lxpd and returns its log and run's error.
func serve(t *testing.T, args ...string) (addr string, stop func() (string, error)) {
	t.Helper()
	log := &logTap{addrs: make(chan string, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), log) }()
	stop = func() (string, error) {
		cancel()
		err := <-done
		return log.String(), err
	}
	select {
	case addr = <-log.addrs:
		return addr, stop
	case err := <-done:
		t.Fatalf("lxpd %q exited: %v\n%s", args, err, log)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatalf("lxpd %q never served:\n%s", args, log)
	}
	return "", nil
}

// scan returns the answer to a query that copies the root of the
// source demo, declared as decl, labelled root.
func scan(t *testing.T, decl, root string) string {
	t.Helper()
	cat, err := mediator.OpenCatalog([]string{decl}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	m, err := cat.Mediator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Query(`CONSTRUCT <out> $R {$R} </out> {} WHERE demo ` + root + ` $R`)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := nav.Materialize(res.Document())
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.MarshalXML(tree)
}

// TestLxpdServes: lxpd -demo kind -n N serves the tree of a demo:kind:N
// source named demo, and lxpd -file serves the file; a cancelled run
// drains and says bye.
func TestLxpdServes(t *testing.T) {
	for _, c := range []struct{ kind, root string }{{"books", "catalog"}, {"homes", "homes"}, {"schools", "schools"}} {
		addr, stop := serve(t, "-demo", c.kind, "-n", "15", "-slow-ms", "1000")
		got := scan(t, "demo=lxp://"+addr+"/doc", c.root)
		log, err := stop()
		if err != nil {
			t.Fatalf("lxpd -demo %s after cancel: %v", c.kind, err)
		}
		if want := scan(t, "demo=demo:"+c.kind+":15", c.root); got != want || !strings.Contains(got, "<"+c.root+">") {
			t.Fatalf("lxpd -demo %s served\n%s\nwant\n%s", c.kind, got, want)
		}
		for _, want := range []string{"signal received; draining connections", "msg=bye"} {
			if !strings.Contains(log, want) {
				t.Fatalf("log lacks %q:\n%s", want, log)
			}
		}
	}

	file := filepath.Join(t.TempDir(), "books.xml")
	if err := os.WriteFile(file, []byte(xmltree.MarshalXML(workload.Books("demo", 7, 1))), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, stop := serve(t, "-file", file)
	got := scan(t, "demo=lxp://"+addr+"/doc", "catalog")
	if _, err := stop(); err != nil {
		t.Fatal(err)
	}
	if want := scan(t, "demo="+file, "catalog"); got != want {
		t.Fatalf("lxpd -file served\n%s\nwant\n%s", got, want)
	}
}

// TestLxpdErrors: each malformed command line or unusable document
// fails with its exit status before lxpd serves.
func TestLxpdErrors(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	bad := filepath.Join(t.TempDir(), "bad.xml")
	if err := os.WriteFile(bad, []byte("<a><b></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-help"}, 0, ""},
		{[]string{"-bogus"}, 2, "not defined"},
		{[]string{"-log-level", "loud"}, 2, "loud"},
		{[]string{}, 2, "need -file or -demo"},
		{[]string{"-demo", "cars"}, 2, "unknown demo dataset"},
		{[]string{"-file", "/nonexistent/doc.xml"}, 1, "no such file"},
		{[]string{"-file", bad}, 1, "parsing"},
		{[]string{"-addr", busy.Addr().String(), "-demo", "books"}, 1, "address already in use"},
	} {
		var stderr strings.Builder
		err := run(context.Background(), c.args, &stderr)
		if code := cli.Exit("lxpd", err, &stderr); code != c.code || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("lxpd %q: exit %d, stderr %q; want exit %d and %q", c.args, code, stderr.String(), c.code, c.want)
		}
	}
}
