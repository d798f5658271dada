package xmltree

// Arena bulk-allocates Tree nodes and the backing arrays of their
// Children slices in chunks, so materializing an n-node subtree costs
// O(log n + n/arenaChunk) heap allocations instead of O(n). Nodes are
// handed out as pointers into chunk slices; a chunk is never grown in
// place (only replaced by a fresh chunk), so issued pointers stay
// valid for the life of the trees.
//
// Chunks are right-sized: the first is sized to the need (one node, or
// the first child list), and each replacement doubles the previous
// capacity up to arenaChunk. A one-node materialization — the common
// leaf value of a join or σ condition — therefore pays for one node,
// not a full chunk.
//
// An Arena is scratch state for one materialization; it is not safe
// for concurrent use. The trees it produces are ordinary immutable
// *Tree values — the chunks stay reachable exactly as long as any node
// carved from them is. A chunk can hold nodes of two trees, and one
// tree's nodes can point into the other's chunks, so an arena kept
// across many trees ties their lifetimes together: keep one per
// materialization, not per connection.
type Arena struct {
	nodes []Tree  // current node chunk; replaced, never regrown
	ptrs  []*Tree // current child-pointer chunk; replaced, never regrown
}

const arenaChunk = 64

// nextChunk returns the capacity of the chunk replacing one of
// capacity prev that must hold at least need more elements: double
// prev, at least 1, at most arenaChunk — or need when that is larger.
func nextChunk(prev, need int) int {
	c := min(max(2*prev, 1), arenaChunk)
	return max(c, need)
}

// NewNode returns a fresh zero-children node with the given label.
func (a *Arena) NewNode(label string) *Tree {
	if len(a.nodes) == cap(a.nodes) {
		a.nodes = make([]Tree, 0, nextChunk(cap(a.nodes), 1))
	}
	a.nodes = a.nodes[:len(a.nodes)+1]
	t := &a.nodes[len(a.nodes)-1]
	t.Label = label
	return t
}

// Children copies kids into arena-backed storage and returns the
// stable slice (nil for an empty kid list). The returned slice has no
// spare capacity, so appending to it cannot clobber a neighbour.
func (a *Arena) Children(kids []*Tree) []*Tree {
	n := len(kids)
	if n == 0 {
		return nil
	}
	if cap(a.ptrs)-len(a.ptrs) < n {
		a.ptrs = make([]*Tree, 0, nextChunk(cap(a.ptrs), n))
	}
	out := a.ptrs[len(a.ptrs) : len(a.ptrs)+n : len(a.ptrs)+n]
	a.ptrs = a.ptrs[:len(a.ptrs)+n]
	copy(out, kids)
	return out
}
