package regioncache

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"mix/internal/algebra"
	"mix/internal/eager"
	"mix/internal/nav"
	"mix/internal/xmas"
	"mix/internal/xmltree"
)

// sharedPlan translates a one-source grouped construct over path and
// returns the plan and its canonical form.
func sharedPlan(t *testing.T, path string) (plan, canon algebra.Op) {
	t.Helper()
	q, err := xmas.Parse(`CONSTRUCT <r> $X {$X} </r> {} WHERE s ` + path + ` $X`)
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = q.Translate(); err != nil {
		t.Fatal(err)
	}
	canon, _, ok := Canonical(plan)
	if !ok {
		t.Fatal("no canonical form")
	}
	return plan, canon
}

// keepLabel is the rebuild of s.<label> from s._: the superset's
// children labelled label, each the superset's own subtree.
func keepLabel(label string) func(*algebra.Containment, Tree) (Tree, bool) {
	return func(_ *algebra.Containment, super Tree) (Tree, bool) {
		var kids []Tree
		for i := range super.Len() {
			if k := super.Child(i); k.Label() == label {
				kids = append(kids, k)
			}
		}
		return Elem(super.Label(), kids...), true
	}
}

// decodeWindow decodes the window subtree at node i.
func decodeWindow(w []WindowNode, i int32) *xmltree.Tree {
	t := &xmltree.Tree{Label: w[i].Label}
	for c := w[i].Down; c >= 0; c = w[c].Right {
		t.Children = append(t.Children, decodeWindow(w, c))
	}
	return t
}

// withIDs counts the nodes under n that carry a producer id.
func withIDs(n *cnode) int {
	c := 0
	if n.id != nil {
		c++
	}
	for _, k := range n.kids {
		c += withIDs(k)
	}
	return c
}

// readEntry reads e whole twice, by navigation and by a root window,
// through a document whose producer must never be asked.
func readEntry(e *Entry, want *xmltree.Tree) error {
	unused := nav.NewCountingDoc(nav.NewTreeDoc(want))
	d := newDoc(e, unused)
	got, err := nav.Materialize(d)
	if err != nil {
		return err
	}
	if !xmltree.Equal(got, want) || unused.Counters.Navigations() != 0 {
		return fmt.Errorf("%s reads %s after %d producer navigations, want %s", e.key.Fingerprint,
			xmltree.MarshalXML(got), unused.Counters.Navigations(), xmltree.MarshalXML(want))
	}
	root, _ := d.Root()
	w, _ := d.Window(root, nil, 1<<20, func(string, bool) int { return 1 }, 0)
	if len(w) == 0 || !xmltree.Equal(decodeWindow(w, 0), want) {
		return fmt.Errorf("%s: root window %+v does not hold %s", e.key.Fingerprint, w, xmltree.MarshalXML(want))
	}
	return nil
}

// TestSemanticSharedSubtreesRace: a subset entry whose closed subtrees
// are a superset entry's own (a semantic hit) stays equal to the eager
// answer while, at once, sessions read and window both entries, a
// peer's region of the superset is merged into it, the subset is
// exported as the cluster flusher does, the superset's and further
// subsets' producers retire, further subsets are rebuilt from the
// superset, and the superset is evicted. Run under -race.
func TestSemanticSharedSubtreesRace(t *testing.T) {
	src := xmltree.Elem("s",
		xmltree.Elem("a", xmltree.Elem("x", xmltree.Leaf("1"))),
		xmltree.Elem("b", xmltree.Leaf("y")),
		xmltree.Elem("a", xmltree.Elem("x", xmltree.Leaf("1"))),
		xmltree.Elem("a", xmltree.Elem("x", xmltree.Leaf("2"))),
		xmltree.Elem("b", xmltree.Leaf("z")),
		xmltree.Elem("a", xmltree.Elem("x", xmltree.Leaf("1"))))
	ev := eager.New()
	ev.Register("s", nav.NewTreeDoc(src))
	superPlan, superCanon := sharedPlan(t, "s._")
	subPlan, subCanon := sharedPlan(t, "s.a")
	superWant, err := ev.Eval(superPlan)
	if err != nil {
		t.Fatal(err)
	}
	subWant, err := ev.Eval(subPlan)
	if err != nil {
		t.Fatal(err)
	}

	c := New(0)
	superKey := subsumeKey(c, "super")
	c.IndexPlan(superKey, superCanon)
	superE := c.Open(superKey)
	// Explored by its producer, which the first hit retires.
	if _, err := nav.Materialize(newDoc(superE, nav.NewTreeDoc(superWant))); err != nil || !superE.Complete() {
		t.Fatalf("superset not complete: %v", err)
	}
	subE := c.Open(subsumeKey(c, "sub"))
	if !c.Subsume(subE, subCanon, keepLabel("a")) {
		t.Fatal("no semantic hit on the complete superset")
	}
	if subE.root.kids[0] != superE.root.kids[0] || subE.root.kids[1] != superE.root.kids[2] {
		t.Fatal("the subset copied the superset's subtrees instead of sharing them")
	}
	if ids := withIDs(superE.root); ids != 0 {
		t.Fatalf("the superset lent subtrees with %d producer ids on them", ids)
	}
	peer, subRegion := superE.Export(), subE.Export()

	const workers, rounds = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				switch (w + r) % 5 {
				case 0, 1:
					if err := readEntry(superE, superWant); err != nil {
						errs <- err
					}
					if err := readEntry(subE, subWant); err != nil {
						errs <- err
					}
				case 2:
					superE.Merge(peer)
					superE.settle() // what its next open does
				case 3:
					if got := subE.Export(); !slices.Equal(*got, *subRegion) {
						errs <- fmt.Errorf("subset export moved: %+v", *got)
					}
				default:
					// A subset whose producer derived its first item before
					// the hit, and retires when the entry is next opened.
					k := subsumeKey(c, fmt.Sprintf("sub-%d-%d", w, r))
					e := c.Open(k)
					d := newDoc(e, nav.NewTreeDoc(subWant))
					root, _ := d.Root()
					if _, err := d.Down(root); err != nil {
						errs <- err
					}
					if c.Subsume(e, subCanon, keepLabel("a")) {
						e.settle()
						if err := readEntry(e, subWant); err != nil {
							errs <- err
						}
					}
				}
				if w == 0 && r == rounds/2 {
					c.mu.Lock()
					if c.entries[superKey] == superE {
						c.dropLocked(superE)
					}
					c.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !superE.dead.Load() {
		t.Fatal("the superset was never evicted")
	}
	if got := superE.Export(); !slices.Equal(*got, *peer) {
		t.Fatalf("merging a peer region of the superset into it changed it: %+v", *got)
	}
	for _, check := range []struct {
		e    *Entry
		want *xmltree.Tree
	}{{superE, superWant}, {subE, subWant}} {
		if err := readEntry(check.e, check.want); err != nil {
			t.Fatal(err)
		}
	}
}
