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
func refWindow(tree *xmltree.Tree, anchor []int, budget int, cost func(string) int) []WindowNode {
	order := windowOrder(tree, anchor)
	n := 0
	for _, p := range order {
		c := cost(at(tree, p).Label)
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

// TestWindowClosedPrefixProperty explores generated trees partially at
// random and builds windows at random explored anchors and budgets.
// Every shipped label and link agrees with the fully explored tree;
// the window ships exactly the closed subtrees of the anchor's sibling
// list up to the first node that is not closed, and only closes the
// list with ⊥ where the entry knows the list ends; and once the entry
// is complete, every window equals the one a complete entry shipped
// before (refWindow).
func TestWindowClosedPrefixProperty(t *testing.T) {
	cost := func(l string) int { return len(l) + 1 }
	r := rand.New(rand.NewSource(32))
	var shipped, listEnds, openCuts int // windows of incomplete entries, by how they end
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
		for range 5 {
			anchor := ids[r.Intn(len(ids))]
			ap := pathOf(t, anchor)
			budget := 1 << 20
			if r.Intn(2) == 0 {
				budget = r.Intn(40)
			}
			win := d.Window(anchor, nil, budget, cost)
			order := windowOrder(tree, ap)
			if len(win) > len(order) {
				t.Fatalf("trial %d: window at %v has %d nodes, the tree's window order %d", trial, ap, len(win), len(order))
			}
			index := map[string]int32{}
			for i, p := range order {
				index[fmt.Sprint(p)] = int32(i)
			}
			for i, n := range win {
				p := order[i]
				if id, err := d.WindowNode(anchor, i); err != nil || !slices.Equal(pathOf(t, id), p) {
					t.Fatalf("trial %d: window at %v: node %d resolves to %v (%v), want %v", trial, ap, i, id, err, p)
				}
				node := at(tree, p)
				if n.Label != node.Label {
					t.Fatalf("trial %d: window at %v: node %d label %q, tree %q", trial, ap, i, n.Label, node.Label)
				}
				if rn := nodeAt(e.root, p); rn == nil || !closedRef(rn) {
					t.Fatalf("trial %d: window at %v shipped node %d %v, which is not closed", trial, ap, i, p)
				}
				down, right := int32(WindowNone), int32(WindowNone)
				if len(node.Children) > 0 {
					down = index[fmt.Sprint(append(slices.Clip(p), 0))]
				}
				if len(p) > 0 && p[len(p)-1]+1 < len(at(tree, p[:len(p)-1]).Children) {
					right = index[fmt.Sprint(append(slices.Clip(p[:len(p)-1]), p[len(p)-1]+1))]
				}
				for _, l := range []struct{ got, want int32 }{{n.Down, down}, {n.Right, right}} {
					if l.got != WindowOut && l.got != l.want {
						t.Fatalf("trial %d: window at %v: node %d %v links %d, the tree %d", trial, ap, i, p, l.got, l.want)
					}
				}
			}
			if budget == 1<<20 && len(win) > 0 {
				shipped++
				if checkClosedPrefix(t, trial, e.root, ap, win) {
					openCuts++
				} else if win[len(win)-1].Right == WindowOut {
					listEnds++
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
				got, want := d.Window(anchor, nil, budget, cost), refWindow(tree, ap, budget, cost)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: complete window at %v budget %d\n got %+v\nwant %+v", trial, ap, budget, got, want)
				}
			}
		}
	}
	t.Logf("%d windows over incomplete entries: %d end at an incomplete list, %d at a node that is not closed", shipped, listEnds, openCuts)
	if shipped < 100 || listEnds < 10 || openCuts < 10 {
		t.Fatalf("generated %d windows over incomplete entries, %d ending at an incomplete list, %d at a node that is not closed; the test measures too little",
			shipped, listEnds, openCuts)
	}
}

// checkClosedPrefix checks an unbounded window against the entry's
// cached tree: it holds the subtrees of the anchor and its right
// siblings up to the first one that is not closed, and its last
// sibling-list node links ⊥ exactly when the entry knows the list ends
// there. It reports whether the window stopped at a node that is not
// closed.
func checkClosedPrefix(t *testing.T, trial int, root *cnode, anchor []int, win []WindowNode) (open bool) {
	t.Helper()
	scope, ended := []*cnode{root}, true
	if len(anchor) > 0 {
		parent := nodeAt(root, anchor[:len(anchor)-1])
		scope, ended = parent.kids[anchor[len(anchor)-1]:], parent.complete
	}
	want, last := 0, -1
	for _, n := range scope {
		if !closedRef(n) {
			ended, open = false, true
			break
		}
		last = want
		want += size(n)
	}
	if len(win) != want {
		t.Fatalf("trial %d: window at %v has %d nodes, the closed prefix %d", trial, anchor, len(win), want)
	}
	right := int32(WindowOut)
	if ended {
		right = WindowNone
	}
	if last >= 0 && win[last].Right != right {
		t.Fatalf("trial %d: window at %v: node %d ends the window and links %d, want %d", trial, anchor, last, win[last].Right, right)
	}
	return open
}
