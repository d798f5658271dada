package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mix/internal/mediator"
	"mix/internal/nav"
)

// TestOpenSourceRDBLooksAhead: an rdb: source, in the mediator mixq
// builds, is served through the buffer with its scan lookahead on, so
// scanning a table of 150 rows (three 50-row chunks) fills at least one
// chunk ahead of the client; the scan takes no more round trips than
// the 4 that mixq's single-hole buffer took.
func TestOpenSourceRDBLooksAhead(t *testing.T) {
	dir := t.TempDir()
	var csv strings.Builder
	csv.WriteString("id,name\n")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&csv, "%d,n%d\n", i, i)
	}
	if err := os.WriteFile(filepath.Join(dir, "people.csv"), []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := mediator.OpenCatalog([]string{"db=rdb:" + dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cat.Mediator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Query(`CONSTRUCT <out> $R {$R} </out> {} WHERE db db.people._ $R`)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := nav.Materialize(res.Document())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tree.Children); n != 150 {
		t.Fatalf("scanned %d rows, want 150", n)
	}
	st := m.BufferStats()["db"]
	if st.PrefetchFills == 0 {
		t.Fatalf("no lookahead fill during the scan: %+v", st)
	}
	if st.RoundTrips > 4 {
		t.Fatalf("the scan took %d round trips, want at most 4: %+v", st.RoundTrips, st)
	}
}
