package core

import (
	"mix/internal/algebra"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
)

// This file applies the plan-containment evidence of algebra.Analyze
// (DESIGN.md §14): when another cached plan of the same view subsumes
// this query's plan and its entry is *fully explored*, the query's
// whole answer is rebuilt from that entry, read in place, as new nodes
// over its closed group subtrees, and grafted into the query's own
// entry (regioncache.Cache.Subsume). A semantic hit then costs zero
// source navigations, exactly like an exact warm hit.

// groupChainBind binds a group subtree to GroupChainVar.
var groupChainBind = &linkOp{to: algebra.GroupChainVar}

// chainCounter counts the derivations of a group chain over a group
// subtree: the bindings its getDescendants/select suffix derives from
// GroupChainVar ↦ root, on the engine's own cursors, so it evaluates
// exactly as the from-source pipeline would. Built once per rebuild, it
// is fed one subtree at a time through its head binding; an empty chain
// derives the one binding it starts from.
type chainCounter struct {
	in   sliceCursor
	head binding
	out  cursor
}

func (q *Query) chainCounter(ops []algebra.ChainOp) *chainCounter {
	cc := &chainCounter{}
	cc.in.buf = []*binding{&cc.head}
	cc.out = &cc.in
	for _, op := range ops {
		if op.Path != nil {
			cc.out = &descendCursor{in: cc.out, parent: op.Parent, out: &linkOp{to: op.Out}, dfa: q.eng.pathDFA(op.Path)}
		} else {
			cc.out = &filterCursor{in: cc.out, cond: op.Cond}
		}
	}
	return cc
}

// count runs the chain over root.
func (cc *chainCounter) count(root regioncache.Tree) (int, error) {
	cc.head = binding{kind: bindLink, parent: newBinding(), val: closedNode{root}, op: groupChainBind}
	cc.in.pos = 0
	for n := 0; ; n++ {
		if b, err := cc.out.next(); b == nil {
			return n, err
		}
	}
}

// closedNode is a Node over a closed subtree of a region-cache entry,
// read where it lies, as a descent reads it too (walkLevel).
type closedNode struct{ t regioncache.Tree }

func (n closedNode) Label() (string, error) { return n.t.Label(), nil }

func (n closedNode) Children() list {
	if n.t.Len() == 0 { // a leaf's empty list boxes nothing
		return emptyList{}
	}
	return closedKids{t: n.t}
}

// closedKids lists the children of t from the i-th on.
type closedKids struct {
	t regioncache.Tree
	i int
}

func (k closedKids) next() (Node, list, error) {
	if k.i == k.t.Len() {
		return nil, nil, nil
	}
	return closedNode{k.t.Child(k.i)}, closedKids{t: k.t, i: k.i + 1}, nil
}

// rebuild derives this query's constructed answer element from a
// subsuming plan's fully explored entry, in the shape of the
// containment evidence, by decoding runs: super's children are, per
// group context, m(T) consecutive copies of the context's group subtree
// T, where m is the super chain's derivation count over T (a function
// of T alone).
// Grouping consecutive equal children therefore yields runs of length
// contexts·m(T); sub keeps each context's subtree iff its root label
// passes the (possibly restricted) group path and emits q(T) copies,
// q being the sub chain's count, each the run's first subtree itself.
// A run length that does not divide by m(T) — or m(T) = 0 for a
// subtree that is nonetheless present — means the entry does not
// decode under this containment; ok=false falls back to the
// source-backed plan. The group path test is a single-step label test
// (algebra.PathRewrite) on the engine's automaton (Engine.pathDFA).
func (q *Query) rebuild(ct *algebra.Containment, super regioncache.Tree) (regioncache.Tree, bool) {
	// Descend the decoration stack: each level holds exactly one
	// element of the next label; the innermost children are the grouped
	// values the runs decode.
	if super.Label() != ct.RootLabels[0] {
		return regioncache.Tree{}, false
	}
	inner := super
	for _, l := range ct.RootLabels[1:] {
		if inner.Len() != 1 || inner.Child(0).Label() != l {
			return regioncache.Tree{}, false
		}
		inner = inner.Child(0)
	}
	superChain := q.chainCounter(ct.SuperChain)
	subChain := q.chainCounter(ct.SubChain)
	var groupDFA *pathexpr.DFA
	if ct.GroupPath != nil {
		groupDFA = q.eng.pathDFA(ct.GroupPath.Sub)
	}
	items := make([]regioncache.Tree, 0, inner.Len())
	for i := 0; i < inner.Len(); {
		T := inner.Child(i)
		j := i + 1
		for j < inner.Len() && inner.Child(j).Equal(T) {
			j++
		}
		run := j - i
		m, err := superChain.count(T)
		if err != nil || m < 1 || run%m != 0 {
			return regioncache.Tree{}, false
		}
		if groupDFA == nil || groupDFA.Step(groupDFA.Start().ID, T.Label()).Accepting {
			cnt, err := subChain.count(T)
			if err != nil {
				return regioncache.Tree{}, false
			}
			for range run / m * cnt {
				items = append(items, T)
			}
		}
		i = j
	}
	last := len(ct.RootLabels) - 1
	ans := regioncache.Elem(ct.RootLabels[last], items...)
	for k := last - 1; k >= 0; k-- {
		ans = regioncache.Elem(ct.RootLabels[k], ans)
	}
	return ans, true
}
