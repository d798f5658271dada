package lxp

import (
	"net"
	"strings"
	"testing"

	"mix/internal/xmltree"
)

func TestValidateFill(t *testing.T) {
	ok := [][]*xmltree.Tree{
		nil,
		{xmltree.Leaf("a")},
		{xmltree.Hole("h1"), xmltree.Leaf("a"), xmltree.Hole("h2")},
		{xmltree.Elem("a", xmltree.Hole("h1"), xmltree.Leaf("x"), xmltree.Hole("h2"))},
		{xmltree.Elem("a", xmltree.Hole("h1"))}, // Example 7: a[∅1] is legal
	}
	for i, trees := range ok {
		if err := ValidateFill("h", trees); err != nil {
			t.Errorf("case %d should validate: %v", i, err)
		}
	}
	bad := [][]*xmltree.Tree{
		{xmltree.Hole("h1")},                                                           // only holes
		{xmltree.Hole("h1"), xmltree.Hole("h2")},                                       // adjacent + only holes
		{xmltree.Leaf("a"), xmltree.Hole("h1"), xmltree.Hole("h2")},                    // adjacent
		{xmltree.Elem("a", xmltree.Hole("h1"), xmltree.Hole("h2"), xmltree.Leaf("x"))}, // nested adjacent
	}
	for i, trees := range bad {
		if err := ValidateFill("h", trees); err == nil {
			t.Errorf("case %d should be rejected", i)
		}
	}
}

func TestValidateFillNestedOnlyHoleMessage(t *testing.T) {
	err := ValidateFill("hid", []*xmltree.Tree{xmltree.Hole("a"), xmltree.Hole("b")})
	pe, ok := err.(*ProtocolError)
	if !ok {
		t.Fatalf("want ProtocolError, got %T", err)
	}
	if pe.HoleID != "hid" || !strings.Contains(pe.Error(), "hid") {
		t.Fatalf("error = %v", pe)
	}
}

func doc() *xmltree.Tree {
	return xmltree.Elem("catalog",
		xmltree.Elem("book", xmltree.Text("title", "t1"), xmltree.Text("price", "10")),
		xmltree.Elem("book", xmltree.Text("title", "t2"), xmltree.Text("price", "20")),
		xmltree.Elem("book", xmltree.Text("title", "t3"), xmltree.Text("price", "30")),
	)
}

// drainServer fully resolves a server's document by filling every hole.
func drainServer(t *testing.T, s Server, uri string) *xmltree.Tree {
	t.Helper()
	rootID, err := s.GetRoot(uri)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := s.Fill(rootID)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Fatalf("root fill returned %d trees", len(trees))
	}
	root := trees[0]
	for {
		holes := root.Holes()
		if len(holes) == 0 {
			return root
		}
		sub, err := s.Fill(holes[0])
		if err != nil {
			t.Fatalf("fill %q: %v", holes[0], err)
		}
		if err := ValidateFill(holes[0], sub); err != nil {
			t.Fatal(err)
		}
		if !replaceHole(root, holes[0], sub) {
			t.Fatalf("hole %q not found for splice", holes[0])
		}
	}
}

func replaceHole(t *xmltree.Tree, id string, repl []*xmltree.Tree) bool {
	for i, c := range t.Children {
		if c.IsHole() && c.HoleID() == id {
			nc := append([]*xmltree.Tree{}, t.Children[:i]...)
			nc = append(nc, repl...)
			nc = append(nc, t.Children[i+1:]...)
			t.Children = nc
			return true
		}
		if replaceHole(c, id, repl) {
			return true
		}
	}
	return false
}

func TestTreeServerWholeDocument(t *testing.T) {
	d := doc()
	s := &TreeServer{Tree: d} // no chunking: everything inline
	got := drainServer(t, s, "any")
	if !xmltree.Equal(got, d) {
		t.Fatalf("got %v want %v", got, d)
	}
}

func TestTreeServerChunked(t *testing.T) {
	d := doc()
	for _, chunk := range []int{1, 2, 5} {
		for _, inline := range []int{0, 1, 3, 100} {
			s := &TreeServer{Tree: d, Chunk: chunk, InlineLimit: inline}
			got := drainServer(t, s, "any")
			if !xmltree.Equal(got, d) {
				t.Fatalf("chunk=%d inline=%d: got %v", chunk, inline, got)
			}
		}
	}
}

func TestTreeServerChunkBoundsFillSize(t *testing.T) {
	d := doc()
	s := &TreeServer{Tree: d, Chunk: 2, InlineLimit: 1}
	id, _ := s.GetRoot("u")
	trees, err := s.Fill(id)
	if err != nil {
		t.Fatal(err)
	}
	// Root itself: catalog[hole] since its size exceeds the limit.
	if len(trees) != 1 || len(trees[0].Children) != 1 || !trees[0].Children[0].IsHole() {
		t.Fatalf("root fill = %v", trees)
	}
	sub, err := s.Fill(trees[0].Children[0].HoleID())
	if err != nil {
		t.Fatal(err)
	}
	// 2 children + continuation hole.
	if len(sub) != 3 || !sub[2].IsHole() {
		t.Fatalf("chunked fill = %v", sub)
	}
}

func TestTreeServerStaleHole(t *testing.T) {
	s := &TreeServer{Tree: doc()}
	if _, err := s.Fill("9/9:0"); err == nil {
		t.Fatal("stale path should error")
	}
	if _, err := s.Fill("bogus"); err == nil {
		t.Fatal("malformed id should error")
	}
	if _, err := s.Fill("0:x"); err == nil {
		t.Fatal("malformed start should error")
	}
	if _, err := s.Fill("a/b:0"); err == nil {
		t.Fatal("non-numeric path should error")
	}
}

func TestParseHoleID(t *testing.T) {
	path, start, err := parseHoleID("0/2/13:5")
	if err != nil || start != 5 || len(path) != 3 || path[2] != 13 {
		t.Fatalf("parseHoleID: %v %d %v", path, start, err)
	}
	path, start, err = parseHoleID(":0")
	if err != nil || len(path) != 0 || start != 0 {
		t.Fatalf("root-level id: %v %d %v", path, start, err)
	}
}

func TestCountingServer(t *testing.T) {
	s := NewCounting(&TreeServer{Tree: doc(), Chunk: 1, InlineLimit: 1})
	drainServer(t, s, "u")
	snap := s.Counters.Snapshot()
	if snap.Msgs < 3 {
		t.Fatalf("expected several messages, got %d", snap.Msgs)
	}
	if snap.Fills != snap.Msgs-1 {
		t.Fatalf("fills = %d msgs = %d", snap.Fills, snap.Msgs)
	}
	if snap.Bytes == 0 {
		t.Fatal("bytes not accounted")
	}
}

func TestWireRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := doc()
	go NewTCPServer(&TreeServer{Tree: d, Chunk: 2, InlineLimit: 2}).Serve(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := drainServer(t, c, "u")
	if !xmltree.Equal(got, d) {
		t.Fatalf("networked document differs: %v", got)
	}
}

func TestWireRemoteError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewTCPServer(&TreeServer{Tree: doc()}).Serve(l)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Fill("bogus"); err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("expected remote error, got %v", err)
	}
	// The connection survives an application-level error.
	if _, err := c.GetRoot("u"); err != nil {
		t.Fatalf("connection should survive: %v", err)
	}
}

func TestWireConcurrentClients(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := doc()
	go NewTCPServer(&TreeServer{Tree: d, Chunk: 1}).Serve(l)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c, err := Dial(l.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			id, err := c.GetRoot("u")
			if err != nil {
				done <- err
				return
			}
			if _, err := c.Fill(id); err != nil {
				done <- err
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
