package core

import (
	"mix/internal/algebra"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
	"mix/internal/xmltree"
)

// This file applies the plan-containment evidence of algebra.Analyze
// (DESIGN.md §14): when another cached plan of the same view subsumes
// this query's plan and its region is *fully explored* — locally or at
// its cluster owner — the query's whole answer is rebuilt by filtering
// that region and merged into the query's own entry. The exact-match
// cache layer then serves every navigation from the entry, so a
// semantic hit costs zero source navigations, exactly like an exact
// warm hit. The candidate loop is regioncache.Cache.Subsume; this file
// supplies the rebuild it calls, which reads the superset's region and
// writes the query's answer as a region, copying group subtrees across
// whole.

// acceptsLabel is the single-step path test: the path accepts exactly
// the one-label sequence [label]. PathRewrite paths are single-step by
// construction (see algebra.PathRewrite), so a node's own label decides
// its membership. The automaton is the engine's (Engine.pathDFA), so a
// label one hit has tested is one map hit for the next.
func acceptsLabel(d *pathexpr.DFA, label string) bool {
	return d.Step(d.Start().ID, label).Accepting
}

// chainStep is a compiled ChainOp: its path's automaton is the engine's
// (Engine.pathDFA), shared with every descent over the same path.
type chainStep struct {
	parent string
	out    *linkOp
	dfa    *pathexpr.DFA
	cond   algebra.Cond
}

func (q *Query) compileChain(ops []algebra.ChainOp) []chainStep {
	steps := make([]chainStep, len(ops))
	for i, op := range ops {
		steps[i] = chainStep{parent: op.Parent, out: &linkOp{to: op.Out}, cond: op.Cond}
		if op.Path != nil {
			steps[i].dfa = q.eng.pathDFA(op.Path)
		}
	}
	return steps
}

// groupChainBind binds a group subtree to GroupChainVar.
var groupChainBind = &linkOp{to: algebra.GroupChainVar}

// countChain counts the derivations of a group chain over one group
// subtree: the number of bindings the chain's getDescendants/select
// suffix produces from GroupChainVar ↦ root. It reuses the engine's own
// operator cursors, so chain conditions and descents evaluate exactly
// as the from-source pipeline would. An empty chain derives the one
// binding it starts from.
func countChain(steps []chainStep, root *xmltree.Tree) (int, error) {
	if len(steps) == 0 {
		return 1, nil
	}
	var c cursor = &sliceCursor{buf: []*binding{
		newBinding().with(groupChainBind, FromTree(root))}}
	for _, st := range steps {
		if st.dfa != nil {
			c = &descendCursor{in: c, parent: st.parent, out: st.out, dfa: st.dfa}
		} else {
			cond := st.cond
			c = &filterCursor{in: c, pred: func(b *binding) (bool, error) {
				return cond.Eval(b)
			}}
		}
	}
	for n := 0; ; n++ {
		if b, err := c.next(); b == nil {
			return n, err
		}
	}
}

// rebuild derives this query's constructed answer element from a
// subsuming plan's fully explored region, in the shape of the
// containment evidence, by decoding runs: super's children are, per
// group context, m(T) consecutive copies of the context's group subtree
// T, where m is the super chain's derivation count over T (a function
// of T alone).
// Grouping consecutive equal children therefore yields runs of length
// contexts·m(T); sub keeps each context's subtree iff its root label
// passes the (possibly restricted) group path and emits q(T) copies,
// q being the sub chain's count. A run length that does not divide by
// m(T) — or m(T) = 0 for a subtree that is nonetheless present — means
// the region does not decode under this containment; ok=false falls
// back to the source-backed plan.
func (q *Query) rebuild(ct *algebra.Containment, super *regioncache.Region) (*regioncache.Region, bool) {
	// Descend the decoration stack: each level holds exactly one
	// element of the next label; the innermost children are the grouped
	// values the runs decode.
	if super.Label(0) != ct.RootLabels[0] {
		return nil, false
	}
	inner := 0
	for _, l := range ct.RootLabels[1:] {
		c := super.Child(inner)
		if c < 0 || super.Next(c) >= 0 || super.Label(c) != l {
			return nil, false
		}
		inner = c
	}
	superSteps := q.compileChain(ct.SuperChain)
	subSteps := q.compileChain(ct.SubChain)
	var groupDFA *pathexpr.DFA
	if ct.GroupPath != nil {
		groupDFA = q.eng.pathDFA(ct.GroupPath.Sub)
	}
	var out regioncache.RegionBuilder
	out.Grow(super.Nodes())
	for _, l := range ct.RootLabels {
		out.Open(l)
	}
	for i := super.Child(inner); i >= 0; {
		j, run := super.Next(i), 1
		for j >= 0 && super.Equal(i, j) {
			j, run = super.Next(j), run+1
		}
		var T *xmltree.Tree
		if len(superSteps)+len(subSteps) > 0 {
			T = super.Subtree(i)
		}
		m, err := countChain(superSteps, T)
		if err != nil || m < 1 || run%m != 0 {
			return nil, false
		}
		contexts := run / m
		if groupDFA == nil || acceptsLabel(groupDFA, super.Label(i)) {
			cnt, err := countChain(subSteps, T)
			if err != nil {
				return nil, false
			}
			for n := 0; n < contexts*cnt; n++ {
				out.Copy(super, i)
			}
		}
		i = j
	}
	for range ct.RootLabels {
		out.Close()
	}
	return out.Region(), true
}
