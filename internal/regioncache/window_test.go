package regioncache

import (
	"slices"
	"testing"

	"mix/internal/nav"
	"mix/internal/xmltree"
)

// windowTree has a root with four children of uneven depth, so windows
// at different anchors cross subtrees, sibling lists and levels.
func windowTree() *xmltree.Tree {
	return xmltree.Elem("r",
		xmltree.Elem("a", xmltree.Elem("a1", xmltree.Leaf("x")), xmltree.Leaf("a2")),
		xmltree.Leaf("b"),
		xmltree.Elem("c", xmltree.Elem("c1", xmltree.Elem("c11", xmltree.Leaf("y")))),
		xmltree.Elem("d", xmltree.Leaf("d1"), xmltree.Leaf(""), xmltree.Leaf("d3")),
	)
}

// completeDoc explores windowTree through a fresh entry until it is
// complete, and returns a second document over the same entry.
func completeDoc(t *testing.T) *Doc {
	t.Helper()
	e := New(0).Entry("v", "fp", 1)
	explore(t, newDoc(e, nav.NewTreeDoc(windowTree())))
	d := newDoc(e, nav.NewTreeDoc(windowTree()))
	if !d.entry.Complete() {
		t.Fatal("explored entry is not complete")
	}
	return d
}

func one(string) int { return 1 }

func pathOf(t *testing.T, id nav.ID) []int {
	t.Helper()
	r, ok := id.(*rid)
	if !ok {
		t.Fatalf("id %T is not this package's", id)
	}
	return r.path
}

// subtreeSize counts the nodes under (and including) t.
func subtreeSize(t *xmltree.Tree) int {
	n := 1
	for _, c := range t.Children {
		n += subtreeSize(c)
	}
	return n
}

// TestWindowOrderAndLinks: at every anchor, the window is the anchor's
// subtree then its right siblings' subtrees in document order, node i
// resolves (WindowNode) to the node whose label the window carries, and
// every link says what navigating the document says.
func TestWindowOrderAndLinks(t *testing.T) {
	d := completeDoc(t)
	tree := windowTree()
	root, _ := d.Root()
	anchors := []nav.ID{root}
	for c, _ := d.Down(root); c != nil; c, _ = d.Right(c) {
		anchors = append(anchors, c)
		if g, _ := d.Down(c); g != nil {
			anchors = append(anchors, g)
		}
	}
	for _, anchor := range anchors {
		ap := pathOf(t, anchor)
		win := d.Window(anchor, nil, 1<<20, one)
		want := subtreeSize(tree)
		if len(ap) > 0 {
			want = 0
			parent := tree
			for _, i := range ap[:len(ap)-1] {
				parent = parent.Children[i]
			}
			for _, c := range parent.Children[ap[len(ap)-1]:] {
				want += subtreeSize(c)
			}
		}
		if len(win) != want {
			t.Fatalf("window at %v has %d nodes, want %d", ap, len(win), want)
		}
		var prev []int
		ids := make([]nav.ID, len(win))
		for i := range win {
			id, err := d.WindowNode(anchor, i)
			if err != nil {
				t.Fatalf("WindowNode(%v, %d): %v", ap, i, err)
			}
			ids[i] = id
			p := pathOf(t, id)
			if i == 0 && !slices.Equal(p, ap) {
				t.Fatalf("node 0 of the window at %v is %v", ap, p)
			}
			// Document order is the lexicographic order of paths.
			if i > 0 && slices.Compare(prev, p) >= 0 {
				t.Fatalf("window at %v: node %d %v does not follow %v", ap, i, p, prev)
			}
			prev = p
			if l, _ := d.Fetch(id); l != win[i].Label {
				t.Fatalf("window at %v: node %d label %q, document %q", ap, i, win[i].Label, l)
			}
		}
		for i := range win {
			for _, link := range []struct {
				to   int32
				move func(nav.ID) (nav.ID, error)
			}{{win[i].Down, d.Down}, {win[i].Right, d.Right}} {
				got, _ := link.move(ids[i])
				switch {
				case link.to == WindowNone:
					if got != nil {
						t.Fatalf("window at %v: node %d links ⊥, document has %v", ap, i, pathOf(t, got))
					}
				case link.to == WindowOut:
					t.Fatalf("window at %v: unbounded window has a link out of it at node %d", ap, i)
				case got == nil || !slices.Equal(pathOf(t, got), pathOf(t, ids[link.to])):
					t.Fatalf("window at %v: node %d links %d, document disagrees", ap, i, link.to)
				}
			}
		}
		if _, err := d.WindowNode(anchor, len(win)); err == nil {
			t.Fatalf("window at %v resolved a node past its end", ap)
		}
	}
}

// TestWindowBudgetCutsAPrefix: a budget keeps the first nodes of the
// unbounded window, and links to nodes it cut say "not in this window".
func TestWindowBudgetCutsAPrefix(t *testing.T) {
	d := completeDoc(t)
	root, _ := d.Root()
	full := d.Window(root, nil, 1<<20, one)
	for k := 0; k <= len(full); k++ {
		win := d.Window(root, nil, k, one)
		if len(win) != k {
			t.Fatalf("budget %d: %d nodes", k, len(win))
		}
		for i, n := range win {
			want := full[i]
			for _, l := range []*int32{&want.Down, &want.Right} {
				if int(*l) >= k {
					*l = WindowOut
				}
			}
			if n != want {
				t.Fatalf("budget %d: node %d = %+v, want %+v", k, i, n, want)
			}
		}
	}
}

// TestWindowOnlyFromCompleteEntries: an entry that is not complete ships
// no window, even where it knows the nodes.
func TestWindowOnlyFromCompleteEntries(t *testing.T) {
	e := New(0).Entry("v", "fp", 1)
	d := newDoc(e, nav.NewTreeDoc(windowTree()))
	root, _ := d.Root()
	a, _ := d.Down(root)
	if _, err := d.Fetch(a); err != nil {
		t.Fatal(err)
	}
	if d.entry.Complete() {
		t.Fatal("partly explored entry reports complete")
	}
	if win := d.Window(root, nil, 1<<20, one); len(win) != 0 {
		t.Fatalf("incomplete entry shipped %d window nodes", len(win))
	}
}

// TestWindowReusesScratch: building into scratch that has grown
// allocates nothing.
func TestWindowReusesScratch(t *testing.T) {
	d := completeDoc(t)
	root, _ := d.Root()
	a, _ := d.Down(root)
	buf := d.Window(root, nil, 1<<20, one)
	allocs := testing.AllocsPerRun(100, func() {
		buf = d.Window(root, buf, 1<<20, one)
		buf = d.Window(a, buf, 1<<20, one)
	})
	if allocs != 0 {
		t.Fatalf("window into grown scratch: %.1f allocs, want 0", allocs)
	}
}
