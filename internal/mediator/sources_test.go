package mediator

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenSourceRejects: every malformed or unusable declaration fails
// with an error that names what is wrong, and a catalog that fails
// part-way closes the connections it had opened.
func TestOpenSourceRejects(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.xml")
	if err := os.WriteFile(bad, []byte("<a><b></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	closed, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := closed.Addr().String()
	closed.Close()
	for decl, want := range map[string]string{
		"nonsense":                  "malformed -src",
		"db=rdb:" + dir + "/none":   "source db",
		"r=lxp://" + dead:           "malformed LXP url",
		"r=lxp://" + dead + "/doc":  "dialing",
		"d=demo:books:many":         "malformed demo size",
		"d=demo:cars:3":             "unknown demo dataset",
		"f=" + dir + "/missing.xml": "source f",
		"f=" + bad:                  "parsing",
	} {
		if _, err := OpenSource(decl); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("OpenSource(%q) = %v, want an error with %q", decl, err, want)
		}
	}

	for _, c := range []struct {
		views []string
		want  string
	}{
		{[]string{"v"}, "malformed -view"},
		{[]string{"v=" + dir + "/v.xmas"}, "view v"},
	} {
		if _, err := OpenCatalog(nil, c.views); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("OpenCatalog(nil, %q) = %v, want an error with %q", c.views, err, c.want)
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := OpenCatalog([]string{"r=lxp://" + l.Addr().String() + "/doc", "nonsense"}, nil); err == nil {
		t.Fatal("OpenCatalog accepted a malformed -src")
	}
	// The failed catalog closed the connection it had opened.
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("the failed catalog left its LXP connection open (read %d bytes)", n)
	}
}

// TestCatalogSources: a demo: source without a size has 1000 entries;
// only the LXP-backed sources carry request counters, which every
// mediator of the catalog counts into.
func TestCatalogSources(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t.csv"), []byte("a\n1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalog([]string{"b=demo:books", "db=rdb:" + dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if n := len(cat.Sources[0].tree.Children); n != 1000 {
		t.Fatalf("demo:books has %d books, want 1000", n)
	}
	counters := cat.Counters
	if len(counters) != 1 || counters["db"] != cat.Sources[1].Counters {
		t.Fatalf("Counters = %v, want db's alone", counters)
	}
	for i := 0; i < 2; i++ {
		m, err := cat.Mediator(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Query(`CONSTRUCT <out> $R {$R} </out> {} WHERE db db.t._ $R`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Materialize(); err != nil {
			t.Fatal(err)
		}
		if st := m.BufferStats()["db"]; st.RoundTrips == 0 {
			t.Fatalf("mediator %d: no round trip through db's buffer: %+v", i, st)
		}
		if got := counters["db"].Fills.Load(); got == 0 || i == 1 && got < 2 {
			t.Fatalf("mediator %d: db counted %d fills", i, got)
		}
	}
}
