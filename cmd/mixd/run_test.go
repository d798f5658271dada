package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mix/internal/cli"
	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// logTap is the stderr of a command under test: it keeps the log and
// passes on the address of every line that announces a listener.
type logTap struct {
	mu    sync.Mutex
	log   strings.Builder
	addrs chan string
}

var announce = regexp.MustCompile(`msg="?(?:serving|http sidecar up)"? addr=(\S+)`)

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

// start runs mixd with args until stop is called or the test ends. It
// returns the n addresses mixd announced (VXDP first, then HTTP with
// -http), its log, and stop, which cancels mixd and returns run's error.
func start(t *testing.T, n int, args ...string) (addrs []string, log *logTap, stop func() error) {
	t.Helper()
	log = &logTap{addrs: make(chan string, 2)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, log) }()
	var once sync.Once
	var err error
	stop = func() error {
		once.Do(func() { cancel(); err = <-done })
		return err
	}
	t.Cleanup(func() { _ = stop() })
	for len(addrs) < n {
		select {
		case a := <-log.addrs:
			addrs = append(addrs, a)
		case err := <-done:
			t.Fatalf("mixd %q exited: %v\n%s", args, err, log)
		case <-time.After(10 * time.Second):
			t.Fatalf("mixd %q announced %d of %d addresses:\n%s", args, len(addrs), n, log)
		}
	}
	return addrs, log, stop
}

// answer opens query on the mixd at addr and materializes its answer.
func answer(t *testing.T, addr, query string) string {
	t.Helper()
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(query); err != nil {
		t.Fatal(err)
	}
	tree, err := nav.Materialize(c)
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.MarshalXML(tree)
}

// serveLXP serves a books catalog over LXP on loopback, as lxpd -demo
// books -n 20 does, until the test ends, and returns its address.
func serveLXP(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := lxp.NewTCPServer(&lxp.TreeServer{Tree: workload.Books("demo", 20, 1), Chunk: 20, InlineLimit: 64})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return l.Addr().String()
}

const (
	rdbQuery = `CONSTRUCT <out> $R {$R} </out> {} WHERE db db.people._ $R AND $R zip._ $Z AND $Z = "91003"`
	lxpQuery = `CONSTRUCT <out> $B {$B} </out> {} WHERE remote catalog.book $B AND $B subject._ $S AND $S = "theory"`
	medHome  = `CONSTRUCT <all> <med_home> $H $S {$S} </med_home> {$H} </all> {}
WHERE homes homes.home $H AND $H zip._ $V1 AND schools schools.school $S AND $S zip._ $V2 AND $V1 = $V2`
)

// TestMixdServesDeclaredSources boots mixd over an rdb:, an lxp:// and
// two demo: sources and a view, and checks over loopback that each
// answer equals the eager one, that /metrics reports the LXP-backed
// sources' series as mixd did before its sources were declared through
// mediator.OpenSource (the figures are that version's, less the one
// fill per source that the root-fill rule saves: 5 and 3 messages,
// 8 999 and 2 247 bytes before it), and that a cancelled run drains and
// says bye.
func TestMixdServesDeclaredSources(t *testing.T) {
	dir := t.TempDir()
	var csv strings.Builder
	csv.WriteString("id,name,zip\n")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&csv, "%d,n%d,91%03d\n", i, i, i%7)
	}
	if err := os.WriteFile(filepath.Join(dir, "people.csv"), []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	view := filepath.Join(t.TempDir(), "v.xmas")
	if err := os.WriteFile(view, []byte(medHome), 0o644); err != nil {
		t.Fatal(err)
	}
	srcs := []string{"db=rdb:" + dir, "remote=lxp://" + serveLXP(t) + "/doc", "homes=demo:homes:20", "schools=demo:schools:20"}
	views := []string{"v=" + view}
	args := []string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-trace"}
	for _, s := range srcs {
		args = append(args, "-src", s)
	}
	addrs, log, stop := start(t, 2, append(args, "-view", views[0])...)

	cat, err := mediator.OpenCatalog(srcs, views)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	oracle, err := cat.Mediator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	viewQuery := `CONSTRUCT <out> $M {$M} </out> {} WHERE v all.med_home $M`
	for _, q := range []string{rdbQuery, lxpQuery, viewQuery} {
		want, err := oracle.QueryEager(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := answer(t, addrs[0], q); got != xmltree.MarshalXML(want) {
			t.Fatalf("mixd answered %s\nwith\n%s\nwant\n%s", q, got, xmltree.MarshalXML(want))
		}
	}

	resp, err := http.Get("http://" + addrs[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mix_source_lxp_msgs_total{source="db"} 4`,
		`mix_source_lxp_msgs_total{source="remote"} 2`,
		`mix_source_lxp_bytes_total{source="db"} 8968`,
		`mix_source_lxp_bytes_total{source="remote"} 2230`,
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("mixd after cancel: %v", err)
	}
	for _, want := range []string{"signal received; draining sessions", "msg=bye"} {
		if !strings.Contains(log.String(), want) {
			t.Fatalf("log lacks %q:\n%s", want, log)
		}
	}
}

// TestMixdCluster boots a one-member fleet serving every session where
// it lands.
func TestMixdCluster(t *testing.T) {
	addrs, log, _ := start(t, 1, "-addr", "127.0.0.1:0", "-cluster", "-cluster-mode", "local", "-peers", " ,",
		"-src", "homes=demo:homes:20", "-src", "schools=demo:schools:20")
	q := strings.ReplaceAll(medHome, "all>", "answer>")
	if got := answer(t, addrs[0], q); !strings.Contains(got, "<med_home>") {
		t.Fatalf("answer %s", got)
	}
	if !strings.Contains(log.String(), "msg=\"cluster member\"") {
		t.Fatalf("log lacks the cluster line:\n%s", log)
	}
}

// TestMixdErrors: each malformed command line or unusable declaration
// fails with its exit status before mixd serves.
func TestMixdErrors(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	demo := []string{"-addr", "127.0.0.1:0", "-src", "homes=demo:homes:5"}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-help"}, 0, ""},
		{[]string{"-bogus"}, 2, "not defined"},
		{[]string{"-log-level", "loud"}, 2, "loud"},
		{[]string{}, 2, "no sources"},
		{[]string{"-src", "nonsense"}, 1, "malformed -src"},
		{append(demo, "-cluster", "-cluster-mode", "bogus"), 1, "configuring cluster"},
		{[]string{"-addr", busy.Addr().String(), "-src", "homes=demo:homes:5"}, 1, "address already in use"},
		{append(demo, "-http", busy.Addr().String()), 1, "address already in use"},
	} {
		var stderr strings.Builder
		err := run(context.Background(), c.args, &stderr)
		if code := cli.Exit("mixd", err, &stderr); code != c.code || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("mixd %q: exit %d, stderr %q; want exit %d and %q", c.args, code, stderr.String(), c.code, c.want)
		}
	}
}
