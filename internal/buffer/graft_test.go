package buffer

import (
	"fmt"
	"net"
	"testing"
	"unsafe"

	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/relational"
	"mix/internal/wrapper"
)

// TestNodeSize pins the buffer node at 48 bytes: one per node the
// client enters, carved from slabs.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n > 48 {
		t.Errorf("node is %d bytes, want <= 48", n)
	}
}

// glanceDB is a one-table database of rows tuples over cols columns;
// the value of column c in row i is "v<i>.<c>".
func glanceDB(rows, cols int) *relational.DB {
	db := relational.NewDB("db")
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	tb := db.Create("t", names...)
	vals := make([]string, cols)
	for i := 0; i < rows; i++ {
		for c := range vals {
			vals[c] = fmt.Sprintf("v%d.%d", i, c)
		}
		tb.MustInsert(vals...)
	}
	return db
}

// glance reads the first column of every row of table t through doc
// and returns the number of rows read.
func glance(doc nav.Document) (int, error) {
	root, err := doc.Root()
	if err != nil {
		return 0, err
	}
	table, err := doc.Down(root)
	if err != nil {
		return 0, err
	}
	row, err := doc.Down(table)
	n := 0
	for ; row != nil && err == nil; row, err = doc.Right(row) {
		col, err := doc.Down(row)
		if err != nil {
			return n, err
		}
		leaf, err := doc.Down(col)
		if err != nil {
			return n, err
		}
		v, err := doc.Fetch(leaf)
		if err != nil {
			return n, err
		}
		if want := fmt.Sprintf("v%d.0", n); v != want {
			return n, fmt.Errorf("row %d: first column %q, want %q", n, v, want)
		}
		n++
	}
	return n, err
}

// countNodes counts the buffer nodes reachable from n.
func countNodes(n *node) int {
	k := 1
	for _, c := range n.children {
		k += countNodes(c)
	}
	return k
}

// TestGraftOnlyEnteredLists: reading one column per row of a chunked
// relational source grafts the row, its column list and the one value
// entered — cols+2 nodes a row — not the row's whole fragment (2·cols+1
// nodes, 13 here, while every fill was grafted in full).
func TestGraftOnlyEnteredLists(t *testing.T) {
	const rows, cols = 200, 6
	b, err := New(&wrapper.Relational{DB: glanceDB(rows, cols), ChunkRows: 10}, "db")
	if err != nil {
		t.Fatal(err)
	}
	n, err := glance(b)
	if err != nil || n != rows {
		t.Fatalf("glance read %d rows, %v; want %d", n, err, rows)
	}
	// Measured: cols+2 per row, plus the database and table nodes.
	nodes := countNodes(b.root)
	if bound := (cols+3)*rows + 16; nodes > bound {
		t.Errorf("%d buffer nodes for %d rows of %d columns, bound %d", nodes, rows, cols, bound)
	}
}

// BenchmarkGlanceOverLXP reads one column per row of a cold chunked
// relational source over real TCP: LXP codec, fills and the buffer
// nodes the glance enters.
func BenchmarkGlanceOverLXP(b *testing.B) {
	const rows, cols = 200, 6
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := lxp.NewTCPServer(&wrapper.Relational{DB: glanceDB(rows, cols), ChunkRows: 10})
	go srv.Serve(l) //nolint:errcheck // exits with the listener
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client, err := lxp.Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		buf, err := New(client, "db")
		if err != nil {
			b.Fatal(err)
		}
		if n, err := glance(buf); err != nil || n != rows {
			b.Fatalf("glance read %d rows, %v", n, err)
		}
		client.Close()
	}
}
