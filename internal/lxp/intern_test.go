package lxp

import (
	"net"
	"strconv"
	"testing"
	"unsafe"

	"mix/internal/xmltree"
)

// TestClientInternerCapped: a client decoding 10⁵ distinct leaf labels
// — data values, say, of sources that keep changing — holds at most
// xmltree.MaxInterned of them, and still interns a label first seen
// after that: decoding it again allocates no string.
func TestClientInternerCapped(t *testing.T) {
	const n = 100_000
	leaves := make([]*xmltree.Tree, n)
	for i := range leaves {
		leaves[i] = xmltree.Leaf("v" + strconv.Itoa(i))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewTCPServer(&TreeServer{Tree: xmltree.Elem("r", leaves...)}).Serve(l) //nolint:errcheck // exits with the listener
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.GetRoot("u")
	if err != nil {
		t.Fatal(err)
	}
	trees, err := c.Fill(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 || !xmltree.Equal(trees[0], xmltree.Elem("r", leaves...)) {
		t.Fatal("the decoded document differs from the served one")
	}
	if got := c.intern.Len(); got > xmltree.MaxInterned {
		t.Fatalf("interner holds %d labels after %d distinct ones, cap %d", got, n+1, xmltree.MaxInterned)
	}
	late := []byte("late-name")
	first := c.intern.InternBytes(late)
	hits, _ := c.intern.Stats()
	if again := c.intern.InternBytes(late); unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatal("a label first seen after the table filled was not interned")
	}
	if h, _ := c.intern.Stats(); h != hits+1 {
		t.Fatalf("the second sighting of a late label missed the interner (hits %d -> %d)", hits, h)
	}
}
