package xmltree

import (
	"fmt"
	"testing"
)

// TestArenaChunksGrowAndPointersStay checks the right-sizing rule — the
// first chunk holds exactly the need, replacements double up to
// arenaChunk, an oversized child list gets a chunk of its own size — and
// that no issued node or child slice moves or is overwritten as later
// chunks are carved.
func TestArenaChunksGrowAndPointersStay(t *testing.T) {
	var a Arena
	var nodes []*Tree
	var caps []int
	for i := 0; i < 300; i++ {
		nodes = append(nodes, a.NewNode(fmt.Sprint(i)))
		if len(a.nodes) == 1 { // a fresh chunk was carved
			caps = append(caps, cap(a.nodes))
		}
	}
	want := []int{1, 2, 4, 8, 16, 32, 64, 64, 64, 64}
	if fmt.Sprint(caps) != fmt.Sprint(want) {
		t.Fatalf("node chunk capacities = %v, want %v", caps, want)
	}
	for i, n := range nodes {
		if n.Label != fmt.Sprint(i) || n.Children != nil {
			t.Fatalf("node %d changed: %q %v", i, n.Label, n.Children)
		}
	}

	var b Arena
	kids := nodes[:3]
	first := b.Children(kids)
	if cap(b.ptrs) != 3 {
		t.Fatalf("first pointer chunk cap = %d, want the need (3)", cap(b.ptrs))
	}
	second := b.Children(nodes[3:5])
	if cap(b.ptrs) != 6 {
		t.Fatalf("second pointer chunk cap = %d, want 6", cap(b.ptrs))
	}
	big := b.Children(nodes[:100])
	if cap(b.ptrs) != 100 {
		t.Fatalf("oversized pointer chunk cap = %d, want 100", cap(b.ptrs))
	}
	b.Children(nodes[:10])
	if cap(b.ptrs) != arenaChunk {
		t.Fatalf("pointer chunk after oversized one cap = %d, want %d", cap(b.ptrs), arenaChunk)
	}
	for i := 0; i < 200; i++ {
		b.Children(nodes[i%7 : i%7+i%5+1])
	}
	check := func(name string, got, want []*Tree) {
		t.Helper()
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("%s: len %d cap %d, want len = cap = %d", name, len(got), cap(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] overwritten", name, i)
			}
		}
	}
	check("first", first, nodes[:3])
	check("second", second, nodes[3:5])
	check("big", big, nodes[:100])
	if b.Children(nil) != nil {
		t.Fatal("empty child list should be nil")
	}
}
