package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mix/internal/buffer"
	"mix/internal/nav"
)

// TestOpenSourceRDBLooksAhead: an rdb: source is served through the
// buffer with its scan lookahead on, so scanning a table of 150 rows
// (three 50-row chunks) fills at least one chunk ahead of the client.
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
	doc, err := openSource("db", "rdb:"+dir)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := doc.(*buffer.Buffer)
	if !ok {
		t.Fatalf("rdb: source opened as %T, want *buffer.Buffer", doc)
	}
	tree, err := nav.Materialize(b)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tree.Children[0].Children); n != 150 {
		t.Fatalf("scanned %d rows, want 150", n)
	}
	if st := b.Stats(); st.PrefetchFills == 0 {
		t.Fatalf("no lookahead fill during the scan: %+v", st)
	}
}
