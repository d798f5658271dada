package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"mix/internal/cli"
	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/trace"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// TestMixqFlags pins mixq's command line, as -help lists it: adding,
// renaming or removing a knob is a deliberate edit of this list.
func TestMixqFlags(t *testing.T) {
	want := []string{
		"connect", "eager", "f", "first", "i", "plan", "q", "slow", "src",
		"stats", "trace", "view",
	}
	var usage strings.Builder
	if err := run([]string{"-help"}, strings.NewReader(""), &usage, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("mixq -help: %v", err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		got = append(got, m[1])
	}
	if !slices.Equal(got, want) {
		t.Fatalf("mixq flags = %d %q, want %d %q", len(got), got, len(want), want)
	}
}

const medHome = `CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homes homes.home $H AND $H zip._ $V1 AND schools schools.school $S AND $S zip._ $V2 AND $V1 = $V2`

// serveLXP serves wrapper srv over LXP on loopback until the test
// ends, and returns its address.
func serveLXP(t *testing.T, srv lxp.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcp := lxp.NewTCPServer(srv)
	done := make(chan error, 1)
	go func() { done <- tcp.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = tcp.Shutdown(ctx)
		<-done
	})
	return l.Addr().String()
}

// brokenLXP opens every document and fails every fill.
type brokenLXP struct{}

var errDown = errors.New("source down")

func (brokenLXP) GetRoot(string) (string, error)       { return "root", nil }
func (brokenLXP) Fill(string) ([]*xmltree.Tree, error) { return nil, errDown }

// sources writes a file and a CSV source into a temporary directory,
// serves a books catalog over LXP, and returns -src declarations of one
// source of each kind: books (a file), homes and schools (demo:), db
// (rdb:) and remote (lxp://).
func sources(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "db"), 0o755); err != nil {
		t.Fatal(err)
	}
	books := filepath.Join(dir, "books.xml")
	if err := os.WriteFile(books, []byte(xmltree.MarshalXML(workload.Books("store", 12, 1))), 0o644); err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString("id,name,zip\n")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&csv, "%d,n%d,91%03d\n", i, i, i%7)
	}
	if err := os.WriteFile(filepath.Join(dir, "db", "people.csv"), []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// As lxpd -demo books -n 20 serves it.
	remote := serveLXP(t, &lxp.TreeServer{Tree: workload.Books("demo", 20, 1), Chunk: 20, InlineLimit: 64})
	return []string{
		"-src", "books=" + books,
		"-src", "homes=demo:homes:30", "-src", "schools=demo:schools:30",
		"-src", "db=rdb:" + filepath.Join(dir, "db"),
		"-src", "remote=lxp://" + remote + "/doc",
	}
}

// mixq runs the command with args and stdin; it fails the test unless
// the command succeeds, and returns what it wrote to stdout and stderr.
func mixq(t *testing.T, stdin string, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	if err := run(args, strings.NewReader(stdin), &out, &errOut); err != nil {
		t.Fatalf("mixq %q: %v\nstderr:\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestLazyEqualsEagerPerSourceKind: over a file, demo:, rdb: and lxp://
// source, the lazy answer equals -eager's, and -stats reports the
// source navigations mixq made before its sources were declared through
// mediator.OpenSource (the lines are that version's output).
func TestLazyEqualsEagerPerSourceKind(t *testing.T) {
	srcs := sources(t)
	for _, c := range []struct{ kind, query, stats string }{
		{"file", `CONSTRUCT <out> $B {$B} </out> {} WHERE books catalog.book $B AND $B subject._ $S AND $S = "databases"`,
			"source books            navs=273 (d=64 r=96 f=112 sel=0 root=1)"},
		{"demo", medHome,
			"source schools          navs=3471 (d=1201 r=1008 f=1261 sel=0 root=1)"},
		{"rdb", `CONSTRUCT <out> $R {$R} </out> {} WHERE db db.people._ $R AND $R zip._ $Z AND $Z = "91003"`,
			"source db               navs=2526 (d=599 r=877 f=1049 sel=0 root=1)"},
		{"lxp", `CONSTRUCT <out> $B {$B} </out> {} WHERE remote catalog.book $B AND $B subject._ $S AND $S = "theory"`,
			"source remote           navs=427 (d=97 r=152 f=177 sel=0 root=1)"},
	} {
		lazy, stats := mixq(t, "", append(slices.Clone(srcs), "-stats", "-q", c.query)...)
		eager, _ := mixq(t, "", append(slices.Clone(srcs), "-eager", "-q", c.query)...)
		if lazy != eager || !strings.Contains(lazy, "<") {
			t.Errorf("%s: lazy answer\n%s\ndiffers from eager\n%s", c.kind, lazy, eager)
		}
		if !strings.Contains(stats, c.stats+" ") {
			t.Errorf("%s: -stats\n%s\nlacks %q", c.kind, stats, c.stats)
		}
	}
	if _, stats := mixq(t, "", append(slices.Clone(srcs), "-stats", "-q", medHome)...); !strings.Contains(stats,
		"source homes            navs=1623 (d=511 r=510 f=601 sel=0 root=1) ") {
		t.Errorf("demo: -stats\n%s\nlacks the homes line", stats)
	}
}

// TestLocalModes drives the local evaluator's other outputs: a view and
// a query file, -first, -plan, -trace and -i.
func TestLocalModes(t *testing.T) {
	dir := t.TempDir()
	view := filepath.Join(dir, "v.xmas")
	if err := os.WriteFile(view, []byte(strings.ReplaceAll(medHome, "answer>", "all>")), 0o644); err != nil {
		t.Fatal(err)
	}
	query := filepath.Join(dir, "q.xmas")
	if err := os.WriteFile(query, []byte(`CONSTRUCT <out> $M {$M} </out> {} WHERE v all.med_home $M`), 0o644); err != nil {
		t.Fatal(err)
	}
	srcs := []string{"-src", "homes=demo:homes:10", "-src", "schools=demo:schools:10", "-view", "v=" + view}

	full, _ := mixq(t, "", append(slices.Clone(srcs), "-f", query)...)
	first, _ := mixq(t, "", append(slices.Clone(srcs), "-f", query, "-first", "1")...)
	if strings.Count(full, "<med_home>") < 2 || strings.Count(first, "<med_home>") != 1 {
		t.Fatalf("-first 1 answer\n%s\nof the full answer\n%s", first, full)
	}
	if out, _ := mixq(t, "", append(slices.Clone(srcs), "-plan", "-f", query)...); !strings.HasPrefix(out, "browsability: ") {
		t.Fatalf("-plan printed\n%s", out)
	}
	if _, trace := mixq(t, "", append(slices.Clone(srcs), "-trace", "-f", query)...); !strings.Contains(trace, "trace summary") {
		t.Fatalf("-trace printed\n%s", trace)
	}
	out, _ := mixq(t, "f\nd\nf\ns\nq\n", append(slices.Clone(srcs), "-i", "-trace", "-f", query)...)
	for _, want := range []string{"at <out>", "at <med_home>", "source navigations:", "usage: s NAME"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-i -trace session lacks %q:\n%s", want, out)
		}
	}
}

// serveMixd serves a mediator over a catalog of srcs on loopback, as
// mixd does, until the test ends, and returns its address.
func serveMixd(t *testing.T, srcs []string, opts ...server.Option) string {
	t.Helper()
	cat, err := mediator.OpenCatalog(srcs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cat.Close)
	srv, err := server.New(func(rc *regioncache.Cache) (*mediator.Mediator, error) { return cat.Mediator(rc, nil) },
		append(opts, server.WithRegionCache(regioncache.New(0)))...)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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

// TestConnect: through -connect, the answer equals the local one; a
// traced server returns spans to stitch and fills its flight ring; an
// untraced one leaves the client spans alone.
func TestConnect(t *testing.T) {
	srcs := []string{"homes=demo:homes:20", "schools=demo:schools:20"}
	local, _ := mixq(t, "", "-src", srcs[0], "-src", srcs[1], "-q", medHome)

	traced := serveMixd(t, srcs, server.WithTrace(true), server.WithSlowNav(0, 0), server.WithNodeName("n1"))
	remote, stderr := mixq(t, "", "-connect", traced, "-trace", "-slow", "-stats", "-q", medHome)
	if remote != local {
		t.Fatalf("remote answer\n%s\ndiffers from the local one\n%s", remote, local)
	}
	for _, want := range []string{"trace summary", "nodes: n1=", "slow navigations retained", "round trips:"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("-connect -trace -slow -stats stderr lacks %q:\n%s", want, stderr)
		}
	}
	if err := run([]string{"-connect", traced, "-q", "CONSTRUCT"}, strings.NewReader(""), new(strings.Builder), new(strings.Builder)); err == nil {
		t.Fatal("the server accepted a malformed query")
	}
	if out, _ := mixq(t, "", "-connect", traced, "-slow"); !strings.Contains(out, "slow navigations retained") {
		t.Fatalf("-slow without a query printed\n%s", out)
	}
	if out, _ := mixq(t, "d\nf\nq\n", "-connect", traced, "-i", "-trace", "-q", medHome); !strings.Contains(out, "at <med_home>") ||
		!strings.Contains(out, trace.ClientLabel+" open") {
		t.Fatalf("remote -i -trace session:\n%s", out)
	}

	plain := serveMixd(t, srcs)
	first, stderr := mixq(t, "", "-connect", plain, "-trace", "-slow", "-first", "1", "-q", medHome)
	if strings.Count(first, "<med_home>") != 1 || !strings.Contains(stderr, "trace: client spans only") ||
		!strings.Contains(stderr, "slow: ring empty") {
		t.Fatalf("untraced server: answer\n%s\nstderr\n%s", first, stderr)
	}
	if out, _ := mixq(t, "d\nq\n", "-connect", plain, "-i", "-trace", "-q", medHome); !strings.Contains(out, "trace: client spans only") {
		t.Fatalf("untraced remote -i -trace session:\n%s", out)
	}
}

// TestErrors: each malformed command line or unusable input fails with
// its exit status, and nothing is left running.
func TestErrors(t *testing.T) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	demo := []string{"-src", "homes=demo:homes:5"}
	badView := filepath.Join(t.TempDir(), "v.xmas")
	if err := os.WriteFile(badView, []byte("CONSTRUCT"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-help"}, 0, ""},
		{[]string{"-bogus"}, 2, "not defined"},
		{[]string{}, 2, "no query"},
		{[]string{"-f", "/nonexistent/q.xmas"}, 1, "no such file"},
		{[]string{"-connect", deadAddr, "-src", "x=demo:books", "-q", "x"}, 1, "do not apply"},
		{[]string{"-connect", deadAddr, "-q", medHome}, 1, "dialing"},
		{[]string{"-slow", "-q", medHome}, 1, "needs -connect"},
		{append(slices.Clone(demo), "-trace", "-eager", "-q", medHome), 1, "does not apply to -eager"},
		{[]string{"-src", "nonsense", "-q", medHome}, 1, "malformed -src"},
		{append(slices.Clone(demo), "-q", "CONSTRUCT"), 1, ""},
		{append(slices.Clone(demo), "-plan", "-q", "CONSTRUCT"), 1, ""},
		{append(slices.Clone(demo), "-eager", "-q", "CONSTRUCT"), 1, ""},
		{append(slices.Clone(demo), "-view", "v=/nonexistent/v.xmas", "-q", medHome), 1, "view v"},
		{append(slices.Clone(demo), "-view", "v="+badView, "-q", medHome), 1, `view "v"`},
	} {
		var out, errOut strings.Builder
		err := run(c.args, strings.NewReader(""), &out, &errOut)
		if code := cli.Exit("mixq", err, &errOut); code != c.code || !strings.Contains(errOut.String(), c.want) {
			t.Errorf("mixq %q: exit %d, stderr %q; want exit %d and %q", c.args, code, errOut.String(), c.code, c.want)
		}
	}
}

// TestSourceFails: a source that fails every fill fails the query with
// its error, locally, at each interactive command that reads it, and
// through -connect.
func TestSourceFails(t *testing.T) {
	bad := "bad=lxp://" + serveLXP(t, brokenLXP{}) + "/doc"
	query := `CONSTRUCT <out> $B {$B} </out> {} WHERE bad catalog.book $B`
	remote := serveMixd(t, []string{bad})
	for _, c := range []struct {
		stdin string
		args  []string
	}{
		{"", []string{"-src", bad, "-q", query}},
		{"d\n", []string{"-src", bad, "-i", "-q", query}},
		{"t\n", []string{"-src", bad, "-i", "-q", query}},
		{"s book\n", []string{"-src", bad, "-i", "-q", query}},
		{"", []string{"-connect", remote, "-q", query}},
		{"d\n", []string{"-connect", remote, "-i", "-q", query}},
	} {
		err := run(c.args, strings.NewReader(c.stdin), new(strings.Builder), new(strings.Builder))
		if err == nil || !strings.Contains(err.Error(), errDown.Error()) {
			t.Errorf("mixq %q with %q on stdin: %v, want the source's error", c.args, c.stdin, err)
		}
	}
}
