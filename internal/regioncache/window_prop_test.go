package regioncache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mix/internal/nav"
	"mix/internal/xmltree"
)

// genTree builds a random tree of at most depth levels below the root,
// with up to four children per node and labels from a small alphabet
// that includes the empty label.
func genTree(r *rand.Rand, depth int) *xmltree.Tree {
	labels := []string{"a", "b", "", "zip", "91004", "é<&>"}
	t := &xmltree.Tree{Label: labels[r.Intn(len(labels))]}
	if depth > 0 {
		for range r.Intn(5) {
			t.Children = append(t.Children, genTree(r, depth-1))
		}
	}
	return t
}

// at returns the node of t at path.
func at(t *xmltree.Tree, path []int) *xmltree.Tree {
	for _, i := range path {
		t = t.Children[i]
	}
	return t
}

// windowOrder lists the paths of the full tree's window at anchor:
// the anchor, its subtree, then its right siblings and their subtrees,
// in document order.
func windowOrder(tree *xmltree.Tree, anchor []int) [][]int {
	var out [][]int
	var walk func(path []int)
	walk = func(path []int) {
		out = append(out, path)
		for i := range at(tree, path).Children {
			walk(append(slices.Clip(path), i))
		}
	}
	if len(anchor) == 0 {
		walk(nil)
		return out
	}
	parent := anchor[:len(anchor)-1]
	for i := anchor[len(anchor)-1]; i < len(at(tree, parent).Children); i++ {
		walk(append(slices.Clip(parent), i))
	}
	return out
}

// refWindow is the window a complete entry shipped before windows
// covered incomplete entries: the full tree's window order cut before
// the first node over budget, links to cut nodes WindowOut.
func refWindow(tree *xmltree.Tree, anchor []int, budget int, cost func(string, bool) int) []WindowNode {
	order := windowOrder(tree, anchor)
	n := 0
	for _, p := range order {
		c := cost(at(tree, p).Label, false)
		if c > budget {
			break
		}
		budget -= c
		n++
	}
	index := func(p []int) int32 {
		for j, q := range order[:n] {
			if slices.Equal(p, q) {
				return int32(j)
			}
		}
		return WindowOut
	}
	win := make([]WindowNode, n)
	for i, p := range order[:n] {
		node := at(tree, p)
		win[i] = WindowNode{Label: node.Label, Down: WindowNone, Right: WindowNone}
		if len(node.Children) > 0 {
			win[i].Down = index(append(slices.Clip(p), 0))
		}
		if len(p) > 0 && p[len(p)-1]+1 < len(at(tree, p[:len(p)-1]).Children) {
			win[i].Right = index(append(slices.Clip(p[:len(p)-1]), p[len(p)-1]+1))
		}
	}
	return win
}

// nodeAt returns the cached node at path, nil when the entry does not
// know it.
func nodeAt(n *cnode, path []int) *cnode {
	for _, i := range path {
		if i >= len(n.kids) {
			return nil
		}
		n = n.kids[i]
	}
	return n
}

// closedRef reports, from the cached tree itself and without the closed
// bits isClosed records, whether a node's label and every child list
// under it are known.
func closedRef(n *cnode) bool {
	if !n.labelKnown || !n.complete {
		return false
	}
	for _, k := range n.kids {
		if !closedRef(k) {
			return false
		}
	}
	return true
}

// size counts the nodes of the cached subtree under n.
func size(n *cnode) int {
	s := 1
	for _, k := range n.kids {
		s += size(k)
	}
	return s
}

// shipped is one window a test built: its anchor, its shape and the
// path of every node, as its handles named them when it was built.
type shipped struct {
	anchor nav.ID
	shape  Shape
	paths  [][]int
}

// TestWindowClosedPrefixProperty explores generated trees partially at
// random and builds windows at random explored anchors, budgets and
// leaf counts. Every shipped label and link agrees with the fully
// explored tree; an unbounded window ships exactly the closed subtrees
// of the anchor's sibling list up to the first node that is not closed,
// then that node and the siblings the entry knows after it as leaves —
// no label, Down WindowOut, at most the leaf count past the anchor —
// and only closes the list with ⊥ where the entry knows it ends. After
// each window the entry grows: a shipped leaf is walked closed and the
// anchor's list extended. Every handle of every window built so far
// still names the node it named when it was built. Once the entry is
// complete, every window equals the one a complete entry shipped
// before (refWindow).
func TestWindowClosedPrefixProperty(t *testing.T) {
	cost := func(l string, unknown bool) int {
		if unknown {
			return 2
		}
		return len(l) + 1
	}
	r := rand.New(rand.NewSource(32))
	var windows, listEnds, openCuts, leafRuns, capped, grown, rechecked int
	for trial := range 300 {
		tree := genTree(r, 1+r.Intn(4))
		e := New(0).Entry("v", "fp", 1)
		d := newDoc(e, nav.NewTreeDoc(tree))
		root, _ := d.Root()
		ids := []nav.ID{root}
		for range r.Intn(40) {
			id := ids[r.Intn(len(ids))]
			var next nav.ID
			var err error
			switch k := r.Intn(10); {
			case k < 4:
				next, err = d.Down(id)
			case k < 7:
				next, err = d.Right(id)
			case k < 9:
				_, err = d.Fetch(id)
			default:
				_, err = nav.Subtree(d, id)
			}
			if err != nil {
				t.Fatal(err)
			}
			if next != nil {
				ids = append(ids, next)
			}
		}
		var built []shipped
		for range 5 {
			anchor := ids[r.Intn(len(ids))]
			ap := pathOf(t, anchor)
			budget := 1 << 20
			if r.Intn(2) == 0 {
				budget = r.Intn(40)
			}
			leaves := []int{0, 1, 2, 3, 8}[r.Intn(5)]
			win, sh := d.Window(anchor, nil, budget, cost, leaves)
			order := windowOrder(tree, ap)
			if len(win) > len(order) {
				t.Fatalf("trial %d: window at %v has %d nodes, the tree's window order %d", trial, ap, len(win), len(order))
			}
			index := map[string]int32{}
			for i, p := range order {
				index[fmt.Sprint(p)] = int32(i)
			}
			paths := make([][]int, len(win))
			for i, n := range win {
				p := order[i]
				if n.Unknown {
					// A leaf: the sibling after the closed prefix, or
					// after the leaf before it.
					p = order[sh.Closed]
					p = append(slices.Clip(p[:len(p)-1]), p[len(p)-1]+i-sh.Closed)
				}
				paths[i] = p
				if id, err := d.WindowNode(anchor, sh, i); err != nil || !slices.Equal(pathOf(t, id), p) {
					t.Fatalf("trial %d: window at %v: node %d resolves to %v (%v), want %v", trial, ap, i, id, err, p)
				}
				node := at(tree, p)
				rn := nodeAt(e.root, p)
				if rn == nil {
					t.Fatalf("trial %d: window at %v shipped node %d %v, which the entry does not know", trial, ap, i, p)
				}
				down, right := int32(WindowNone), int32(WindowNone)
				if len(node.Children) > 0 {
					down = index[fmt.Sprint(append(slices.Clip(p), 0))]
				}
				if len(p) > 0 && p[len(p)-1]+1 < len(at(tree, p[:len(p)-1]).Children) {
					right = index[fmt.Sprint(append(slices.Clip(p[:len(p)-1]), p[len(p)-1]+1))]
					if n.Unknown || i+1 < len(win) && win[i+1].Unknown {
						right = int32(i + 1) // leaves follow their left sibling
					}
				}
				switch {
				case !n.Unknown && i >= sh.Closed, n.Unknown && i < sh.Closed:
					t.Fatalf("trial %d: window at %v of shape %+v: node %d Unknown=%v", trial, ap, sh, i, n.Unknown)
				case !n.Unknown && !closedRef(rn):
					t.Fatalf("trial %d: window at %v shipped node %d %v, which is not closed", trial, ap, i, p)
				case !n.Unknown && n.Label != node.Label:
					t.Fatalf("trial %d: window at %v: node %d label %q, tree %q", trial, ap, i, n.Label, node.Label)
				case n.Unknown && (n.Label != "" || n.Down != WindowOut):
					t.Fatalf("trial %d: window at %v: leaf %d %v ships %+v", trial, ap, i, p, n)
				}
				for _, l := range []struct{ got, want int32 }{{n.Down, down}, {n.Right, right}} {
					if l.got != WindowOut && l.got != l.want {
						t.Fatalf("trial %d: window at %v: node %d %v links %d, the tree %d", trial, ap, i, p, l.got, l.want)
					}
				}
			}
			if budget == 1<<20 {
				if len(win) > 0 {
					windows++
				}
				open, cut, listEnd := checkShape(t, trial, e.root, ap, win, sh, leaves)
				switch {
				case open && len(win) > sh.Closed:
					leafRuns++
				case open:
					openCuts++
				}
				switch {
				case cut:
					capped++
				case listEnd:
					listEnds++
				}
			}
			built = append(built, shipped{anchor, sh, paths})
			grown += grow(t, r, d, anchor, win, sh)
			for _, b := range built {
				for i, p := range b.paths {
					if id, err := d.WindowNode(b.anchor, b.shape, i); err != nil || !slices.Equal(pathOf(t, id), p) {
						t.Fatalf("trial %d: after the entry grew, node %d of the window at %v resolves to %v (%v), shipped as %v",
							trial, i, pathOf(t, b.anchor), id, err, p)
					}
					rechecked++
				}
			}
		}
		if _, err := nav.Materialize(d); err != nil {
			t.Fatal(err)
		}
		if !e.Complete() {
			t.Fatalf("trial %d: materialized entry is not complete", trial)
		}
		for _, anchor := range ids {
			ap := pathOf(t, anchor)
			for _, budget := range []int{0, 3, 17, 1 << 20} {
				got, sh := d.Window(anchor, nil, budget, cost, 8)
				if want := refWindow(tree, ap, budget, cost); !slices.Equal(got, want) || sh.Closed != len(got) {
					t.Fatalf("trial %d: complete window at %v budget %d\n got %+v %+v\nwant %+v", trial, ap, budget, got, sh, want)
				}
			}
		}
	}
	t.Logf("%d unbounded windows: %d end at an incomplete list, %d at a node that is not closed without leaves, %d with leaves (%d cut at the leaf count); %d entries grew, %d handles rechecked",
		windows, listEnds, openCuts, leafRuns, capped, grown, rechecked)
	if windows < 100 || listEnds < 10 || openCuts < 10 || leafRuns < 50 || capped < 10 || grown < 100 {
		t.Fatal("the test measures too little")
	}
}

// grow walks one leaf of win closed, when it has leaves, and extends
// the anchor's sibling list by one, when the entry does not know its
// end. It reports whether the entry grew.
func grow(t *testing.T, r *rand.Rand, d *Doc, anchor nav.ID, win []WindowNode, sh Shape) int {
	t.Helper()
	before := size(d.entry.root)
	if n := len(win) - sh.Closed; n > 0 {
		leaf, err := d.WindowNode(anchor, sh, sh.Closed+r.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nav.Subtree(d, leaf); err != nil {
			t.Fatal(err)
		}
	}
	if past, ended := d.Known(anchor); !ended {
		if err := d.DeriveRight(anchor, past+1); err != nil {
			t.Fatal(err)
		}
	}
	if size(d.entry.root) > before {
		return 1
	}
	return 0
}

// checkShape checks an unbounded window against the entry's cached
// tree: it holds the subtrees of the anchor and its right siblings up
// to the first one that is not closed; then, from that one on, the
// siblings the entry knows as leaves, at most leaves of them past the
// anchor, none when the anchor would be the only one; and its last
// sibling-list node links ⊥ exactly when the entry knows the list ends
// there. It reports whether the closed prefix stopped at a node that is
// not closed, whether the leaf count cut the leaves short, and whether
// the window ends at the end of a list the entry has not seen end.
func checkShape(t *testing.T, trial int, root *cnode, anchor []int, win []WindowNode, sh Shape, leaves int) (open, cut, listEnd bool) {
	t.Helper()
	scope, ended := []*cnode{root}, true
	if len(anchor) > 0 {
		parent := nodeAt(root, anchor[:len(anchor)-1])
		scope, ended = parent.kids[anchor[len(anchor)-1]:], parent.complete
	}
	closed, tops, last := 0, 0, -1
	for _, n := range scope {
		if !closedRef(n) {
			open = true
			break
		}
		last = closed
		closed += size(n)
		tops++
	}
	want := closed
	if open {
		n, limit := len(scope)-tops, leaves
		if tops == 0 {
			limit++ // the anchor leads the leaves
		}
		if n > limit {
			n, cut = limit, true
		}
		if tops == 0 && n == 1 {
			n = 0
		}
		if n > 0 {
			last = closed + n - 1
		}
		want += n
		if cut {
			ended = false
		}
	}
	if sh.Closed != closed || sh.Tops != tops || len(win) != want {
		t.Fatalf("trial %d: window at %v: %d nodes, shape %+v; want %d nodes, %d of them closed over %d tops",
			trial, anchor, len(win), sh, want, closed, tops)
	}
	right := int32(WindowOut)
	if ended {
		right = WindowNone
	}
	if last >= 0 && len(win) > 0 && win[last].Right != right {
		t.Fatalf("trial %d: window at %v: node %d ends the window and links %d, want %d", trial, anchor, last, win[last].Right, right)
	}
	listEnd = len(win) > 0 && !ended && !cut && (!open || len(win) > closed)
	return open, cut, listEnd
}
