package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/pathexpr/pathexprtest"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// randomLabelTree builds a random tree under root label r whose
// elements are labeled a–d, up to depth levels below the root.
func randomLabelTree(r *rand.Rand, depth int) *xmltree.Tree {
	var grow func(label string, depth int) *xmltree.Tree
	grow = func(label string, depth int) *xmltree.Tree {
		t := &xmltree.Tree{Label: label}
		if depth == 0 {
			return t
		}
		for i := r.Intn(4); i > 0; i-- {
			t.Children = append(t.Children, grow(string(rune('a'+r.Intn(4))), depth-1))
		}
		return t
	}
	return grow("r", depth)
}

// nfaMatches is the brute-force reference: every node below root whose
// label path from root the NFA matches, in document order.
func nfaMatches(nfa *pathexpr.NFA, root *xmltree.Tree) []*xmltree.Tree {
	var out []*xmltree.Tree
	var walk func(t *xmltree.Tree, path []string)
	walk = func(t *xmltree.Tree, path []string) {
		for _, c := range t.Children {
			p := append(path, c.Label)
			if nfa.Matches(p) {
				out = append(out, c)
			}
			walk(c, p)
		}
	}
	walk(root, nil)
	return out
}

// unprunedWalk is the descent before dead-end pruning: it prunes only
// subtrees no continuation can match, so it enters the children of
// every match.
func unprunedWalk(dfa *pathexpr.DFA, n Node, state int, out *[]Node) error {
	for l := n.Children(); ; {
		c, rest, err := l.next()
		if err != nil || c == nil {
			return err
		}
		label, err := c.Label()
		if err != nil {
			return err
		}
		if st := dfa.Step(state, label); st.Alive {
			if st.Accepting {
				*out = append(*out, c)
			}
			if err := unprunedWalk(dfa, c, st.ID, out); err != nil {
				return err
			}
		}
		l = rest
	}
}

// newDescent returns the getDescendants cursor over the one parent
// value n, binding each match to X.
func newDescent(dfa *pathexpr.DFA, n Node) *descendCursor {
	in := &sliceCursor{buf: []*binding{newBinding().with(&linkOp{to: "P"}, n)}}
	return &descendCursor{in: in, parent: "P", out: &linkOp{to: "X"}, dfa: dfa}
}

// drainMatches pulls c to exhaustion and returns the matches it bound
// to X.
func drainMatches(t *testing.T, c cursor) []Node {
	t.Helper()
	bs, err := drain(c)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Node, len(bs))
	for i, b := range bs {
		if out[i], err = b.node("X"); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sourceTrees maps source-backed nodes of td to the subtrees they
// denote, so matches compare by identity.
func sourceTrees(t *testing.T, td *nav.TreeDoc, nodes []Node) []*xmltree.Tree {
	out := make([]*xmltree.Tree, len(nodes))
	for i, n := range nodes {
		sb, ok := asSourceBacked(n)
		if !ok {
			t.Fatalf("match %d is not source-backed", i)
		}
		_, id := sb.source()
		if out[i] = td.ClosedTree(id); out[i] == nil {
			t.Fatalf("match %d: foreign id %v", i, id)
		}
	}
	return out
}

// TestPrunedDescentMatchesNFA: over random path expressions and random
// trees, the descent that skips the children of matches no label can
// extend yields exactly the nodes a brute-force NFA walk over every node
// matches, in document order, and never navigates the source more than
// the unpruned descent.
func TestPrunedDescentMatchesNFA(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := pathexprtest.Expr(r, 3)
		expr, err := pathexpr.Parse(src)
		if err != nil {
			t.Fatalf("pathexprtest.Expr produced unparsable %q: %v", src, err)
		}
		tree := randomLabelTree(r, 4)
		want := nfaMatches(pathexpr.Compile(expr), tree)
		td := nav.NewTreeDoc(tree)
		root, _ := td.Root()
		dfa := pathexpr.NewDFA(pathexpr.Compile(expr), nil)

		pruned := nav.NewCountingDoc(td)
		got := drainMatches(t, newDescent(dfa, &srcPos{doc: pruned, id: root}))

		unpruned := nav.NewCountingDoc(td)
		var ref []Node
		if err := unprunedWalk(dfa, &srcPos{doc: unpruned, id: root}, dfa.Start().ID, &ref); err != nil {
			t.Fatal(err)
		}

		if g := sourceTrees(t, td, got); !slices.Equal(g, want) {
			t.Logf("%q: pruned descent yields %d matches, the NFA walk %d (or a different order)", src, len(g), len(want))
			return false
		}
		if u := sourceTrees(t, td, ref); !slices.Equal(u, want) {
			t.Logf("%q: unpruned descent disagrees with the NFA walk", src)
			return false
		}
		if p, u := pruned.Counters.Navigations(), unpruned.Counters.Navigations(); p > u {
			t.Logf("%q: pruned descent made %d source navigations, unpruned %d", src, p, u)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPrunedDescentSkipsMatchChildren pins the saving on the paper's
// running path: homes.home reads the label of every home and the
// children of none.
func TestPrunedDescentSkipsMatchChildren(t *testing.T) {
	homes, _ := workload.HomesSchools(20, 0, 5, 3)
	cd := nav.NewCountingDoc(nav.NewTreeDoc(xmltree.Elem("doc", homes)))
	root, _ := cd.Root()
	dfa := pathexpr.NewDFA(pathexpr.Compile(pathexpr.MustParse("homes.home")), nil)
	cd.Counters.Reset()
	n := len(drainMatches(t, newDescent(dfa, &srcPos{doc: cd, id: root})))
	// d and f on homes, then per home one r (d for the first) and one f,
	// and the two r that end the home list and the root's.
	s := cd.Counters.Snapshot()
	if n != 20 || s.Down != 2 || s.Right != 21 || s.Fetch != 21 {
		t.Fatalf("%d matches with d=%d r=%d f=%d; want 20 with d=2 r=21 f=21", n, s.Down, s.Right, s.Fetch)
	}
}

// TestDescentForkIndependent: a descent forked mid-walk continues in
// both copies with the same remaining matches, and the fork's pulls
// leave the original's position alone. It forks at every match, over a
// source parent and over a constructed parent whose children mix a
// constructed subtree and a source one, so the copied stack holds both
// kinds of level.
func TestDescentForkIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tree, built := randomLabelTree(r, 5), randomLabelTree(r, 3)
	td := nav.NewTreeDoc(tree)
	root, _ := td.Root()
	src := &srcPos{doc: td, id: root}
	parents := map[string]Node{
		"source":      src,
		"constructed": NewElem("c", consList{head: FromTree(built), tail: singletonList(src)}),
	}
	dfa := pathexpr.NewDFA(pathexpr.Compile(pathexpr.MustParse("_*.b")), nil)
	identities := func(nodes []Node) []*xmltree.Tree {
		out := make([]*xmltree.Tree, len(nodes))
		for i, n := range nodes {
			if tn, ok := n.(treeNode); ok {
				out[i] = tn.t
			} else {
				out[i] = sourceTrees(t, td, []Node{n})[0]
			}
		}
		return out
	}
	for name, parent := range parents {
		want := identities(drainMatches(t, newDescent(dfa, parent)))
		if len(want) < 5 {
			t.Fatalf("%s: %d matches; the test needs a longer walk", name, len(want))
		}
		depth := 0
		for k := 0; k <= len(want); k++ {
			orig := newDescent(dfa, parent)
			for i := 0; i < k; i++ {
				if b, err := orig.next(); b == nil {
					t.Fatalf("%s: pull %d ended early (%v)", name, i, err)
				}
			}
			depth = max(depth, len(orig.stack))
			fork := orig.fork()
			if got := identities(drainMatches(t, fork)); !slices.Equal(got, want[k:]) {
				t.Fatalf("%s: a fork after %d matches yields %d matches, want the remaining %d", name, k, len(got), len(want)-k)
			}
			if got := identities(drainMatches(t, orig)); !slices.Equal(got, want[k:]) {
				t.Fatalf("%s: after its fork drained, the original yields %d matches from match %d, want %d", name, len(got), k, len(want)-k)
			}
		}
		if depth < 3 {
			t.Fatalf("%s: forks saw at most %d levels; the test needs a deeper walk", name, depth)
		}
	}
}

// TestSharedAutomataConcurrentOpens: goroutines open different plans
// that share path expressions on one engine, concurrently; each
// distinct path gets one automaton for the engine's lifetime, and every
// answer equals internal/eager's.
func TestSharedAutomataConcurrentOpens(t *testing.T) {
	homes, schools := workload.HomesSchools(23, 17, 5, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	e, _ := engineWith(DefaultOptions(), srcs)
	plans := operatorPlans()
	names := make([]string, 0, len(plans))
	views, want := map[string]*View{}, map[string]string{}
	paths := map[string]bool{}
	for name, mk := range plans {
		names = append(names, name)
		views[name] = mustPrepare(t, mk(), "")
		want[name] = eagerAnswer(t, mk(), srcs)
		algebra.Walk(mk(), func(op algebra.Op) {
			if gd, ok := op.(*algebra.GetDescendants); ok {
				paths[gd.Path.String()] = true
			}
		})
	}
	sort.Strings(names)
	const workers, rounds = 6, 3
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*len(names); i++ {
				name := names[(g+i)%len(names)]
				q, err := e.Compile(views[name])
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				tree, err := q.Materialize()
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if got := xmltree.MarshalXML(tree); got != want[name] {
					t.Errorf("%s: answer differs from eager:\n%s\nvs\n%s", name, got, want[name])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Every automaton now exists with the states these documents reach:
	// another pass over every plan materializes none.
	_, _, before := pathexpr.DFAStats()
	for _, name := range names {
		q, err := e.Compile(views[name])
		if err != nil {
			t.Fatal(err)
		}
		mustMaterialize(t, q)
	}
	if _, _, after := pathexpr.DFAStats(); after != before {
		t.Fatalf("a warm pass materialized %d automaton states", after-before)
	}
	e.dfaMu.Lock()
	defer e.dfaMu.Unlock()
	// The fused label scan steps no automaton, so some plan paths may
	// have none; no path has two.
	if len(e.dfas) > len(paths) {
		t.Fatalf("%d automata for %d distinct paths", len(e.dfas), len(paths))
	}
	for key := range e.dfas {
		if !paths[key] {
			t.Fatalf("automaton for %q, which no plan names", key)
		}
	}
}

// TestAutomatonMemoBounded: a flood of distinct paths leaves the
// engine's automaton memo at its cap, and the paths past the cap, on
// private automata, still answer as internal/eager does.
func TestAutomatonMemoBounded(t *testing.T) {
	src := xmltree.Elem("r", xmltree.Elem("a", xmltree.Leaf("1")), xmltree.Elem("b", xmltree.Leaf("2")))
	srcs := map[string]*xmltree.Tree{"s": src}
	e, _ := engineWith(DefaultOptions(), srcs)
	for i := 0; i < maxDFAs+20; i++ {
		plan := func() algebra.Op {
			return &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"}, Parent: "R",
				Path: pathexpr.MustParse(fmt.Sprintf("(a|x%d)._", i)), Out: "X"}
		}
		got := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, e, plan())))
		if want := eagerAnswer(t, plan(), srcs); got != want {
			t.Fatalf("path %d: answer differs from eager:\n%s\nvs\n%s", i, got, want)
		}
	}
	e.dfaMu.Lock()
	defer e.dfaMu.Unlock()
	if len(e.dfas) > maxDFAs {
		t.Fatalf("%d automata memoized, cap %d", len(e.dfas), maxDFAs)
	}
}
