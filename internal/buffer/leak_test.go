package buffer

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"weak"

	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/xmltree"
)

// TestRetiredFragmentsCollectable: buffers over one shared LXP client
// keep the fragments they received, and nothing else does. A first
// buffer explores its document and is dropped; further buffers over the
// same client decode further frames. After a GC no fragment node the
// first buffer held is still reachable, so a long-lived connection
// whose buffers are retired one source epoch after another keeps a flat
// heap.
func TestRetiredFragmentsCollectable(t *testing.T) {
	var kids []*xmltree.Tree
	for i := 0; i < 30; i++ {
		kids = append(kids, xmltree.Elem("home",
			xmltree.Text("zip", fmt.Sprint(92000+i)), xmltree.Text("price", fmt.Sprint(1000*i))))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go lxp.NewTCPServer(&lxp.TreeServer{Tree: xmltree.Elem("homes", kids...), Chunk: 3, InlineLimit: 4}).Serve(l) //nolint:errcheck // exits with the listener
	client, err := lxp.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	first := retiredFragments(t, client)
	if len(first) < 100 {
		t.Fatalf("the first buffer held only %d fragment nodes", len(first))
	}
	for range 3 {
		retiredFragments(t, client)
	}
	runtime.GC()
	runtime.GC()
	live := 0
	for _, w := range first {
		if w.Value() != nil {
			live++
		}
	}
	if live > 0 {
		t.Fatalf("%d of the first buffer's %d fragment nodes outlived it", live, len(first))
	}
}

// retiredFragments explores the whole document through a fresh buffer
// over client, then drops the buffer and returns weak pointers to every
// fragment node it held.
func retiredFragments(t *testing.T, client *lxp.Client) []weak.Pointer[xmltree.Tree] {
	t.Helper()
	b, _ := New(client, "doc")
	if _, err := nav.Materialize(b); err != nil {
		t.Fatal(err)
	}
	var out []weak.Pointer[xmltree.Tree]
	var frag func(*xmltree.Tree)
	frag = func(ft *xmltree.Tree) {
		out = append(out, weak.Make(ft))
		for _, c := range ft.Children {
			frag(c)
		}
	}
	var walk func(*node)
	walk = func(n *node) {
		if n.t != nil {
			frag(n.t)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	b.mu.Lock()
	walk(b.root)
	b.mu.Unlock()
	return out
}
