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

func one(string, bool) int { return 1 }

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
		win, sh := d.Window(anchor, nil, 1<<20, one, 8)
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
			id, err := d.WindowNode(anchor, sh, i)
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
		if _, err := d.WindowNode(anchor, sh, len(win)); err == nil {
			t.Fatalf("window at %v resolved a node past its end", ap)
		}
	}
}

// TestWindowBudgetCutsAPrefix: a budget keeps the first nodes of the
// unbounded window, and links to nodes it cut say "not in this window".
func TestWindowBudgetCutsAPrefix(t *testing.T) {
	d := completeDoc(t)
	root, _ := d.Root()
	full, _ := d.Window(root, nil, 1<<20, one, 8)
	for k := 0; k <= len(full); k++ {
		win, _ := d.Window(root, nil, k, one, 8)
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

// TestWindowOnlyFromCompleteEntries: an entry that is not complete
// ships its closed subtrees whole and the nodes it knows beyond them as
// leaves, but never the label of a node that is not closed — not even
// one it has fetched — and no window whose only node is a leaf.
func TestWindowOnlyFromCompleteEntries(t *testing.T) {
	e := New(0).Entry("v", "fp", 1)
	d := newDoc(e, nav.NewTreeDoc(windowTree()))
	root, _ := d.Root()
	a, _ := d.Down(root)
	b, _ := d.Right(a)
	c, _ := d.Right(b)
	for _, id := range []nav.ID{a, b, c} {
		if _, err := d.Fetch(id); err != nil {
			t.Fatal(err)
		}
	}
	if d.entry.Complete() {
		t.Fatal("partly explored entry reports complete")
	}
	leaf := WindowNode{Down: WindowOut, Right: WindowOut, Unknown: true}
	link := func(n WindowNode, right int32) WindowNode { n.Right = right; return n }
	for _, tc := range []struct {
		what   string
		anchor nav.ID
		leaves int
		want   []WindowNode
	}{
		{"root", root, 8, nil},
		{"a", a, 8, []WindowNode{link(leaf, 1), link(leaf, 2), leaf}},
		{"a, one leaf past it", a, 1, []WindowNode{link(leaf, 1), leaf}},
		{"a, no leaf past it", a, 0, nil},
		{"c", c, 8, nil},
	} {
		if win, _ := d.Window(tc.anchor, nil, 1<<20, one, tc.leaves); !slices.Equal(win, tc.want) {
			t.Fatalf("window at %s: %+v, want %+v", tc.what, win, tc.want)
		}
	}
	// b is a leaf in the source: once its empty child list is known, it
	// is closed and ships its label; c follows as a leaf.
	if _, err := nav.Subtree(d, b); err != nil {
		t.Fatal(err)
	}
	win, sh := d.Window(b, nil, 1<<20, one, 8)
	if want := []WindowNode{{Label: "b", Down: WindowNone, Right: 1}, leaf}; !slices.Equal(win, want) || sh != (Shape{Closed: 1, Tops: 1}) {
		t.Fatalf("window at closed b: %+v %+v, want %+v", win, sh, want)
	}
	if id, err := d.WindowNode(b, sh, 1); err != nil || !slices.Equal(pathOf(t, id), []int{2}) {
		t.Fatalf("leaf 1 of the window at b resolves to %v (%v), want c", id, err)
	}
}

// TestWindowReusesScratch: building into scratch that has grown
// allocates nothing.
func TestWindowReusesScratch(t *testing.T) {
	d := completeDoc(t)
	root, _ := d.Root()
	a, _ := d.Down(root)
	buf, _ := d.Window(root, nil, 1<<20, one, 8)
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = d.Window(root, buf, 1<<20, one, 8)
		buf, _ = d.Window(a, buf, 1<<20, one, 8)
	})
	if allocs != 0 {
		t.Fatalf("window into grown scratch: %.1f allocs, want 0", allocs)
	}
}

// TestWindowRefusesForeignIDs: the window calls answer an id another
// document issued, or a path the entry does not know, with nothing —
// no window, no node, no path — and DeriveRight and Known leave the
// answer root, which has no siblings, alone.
func TestWindowRefusesForeignIDs(t *testing.T) {
	d := completeDoc(t)
	other := newDoc(d.entry, nav.NewTreeDoc(windowTree()))
	root, _ := d.Root()
	foreign, _ := other.Root()
	for _, id := range []nav.ID{foreign, &rid{d: d, path: []int{99}}} {
		if win, sh := d.Window(id, nil, 1<<20, one, 8); len(win) != 0 || sh != (Shape{}) {
			t.Fatalf("window at %v: %+v %+v", id, win, sh)
		}
		if n, err := d.WindowNode(id, Shape{Closed: 1}, 0); err == nil {
			t.Fatalf("node 0 of the window at %v resolved to %v", id, n)
		}
	}
	if _, ok := d.Path(foreign); ok {
		t.Fatal("Path answered a foreign id")
	}
	if past, ended := d.Known(foreign); past != 0 || !ended {
		t.Fatalf("Known of a foreign id: %d, %v", past, ended)
	}
	if err := d.DeriveRight(foreign, 1); err == nil {
		t.Fatal("DeriveRight accepted a foreign id")
	}
	if past, ended := d.Known(root); past != 0 || !ended {
		t.Fatalf("Known of the root: %d, %v", past, ended)
	}
	if err := d.DeriveRight(root, 1); err != nil {
		t.Fatal(err)
	}
}
