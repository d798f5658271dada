package core

import (
	"fmt"

	"mix/internal/algebra"
	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

// This file applies the plan-containment evidence of algebra.Analyze
// (DESIGN.md §14): when another cached plan of the same view subsumes
// this query's plan and its region is *fully explored* — locally or at
// its cluster owner — the query's whole answer is rebuilt by filtering
// that materialized region and merged into the query's own entry. The
// exact-match cache layer then serves every navigation from the entry,
// so a semantic hit costs zero source navigations, exactly like an
// exact warm hit. The candidate loop is regioncache.Cache.Subsume; this
// file supplies the rebuild it calls.

// rebuild derives this query's answer from a subsuming plan's fully
// explored answer tree, in the shape the containment evidence names.
func (q *Query) rebuild(ct *algebra.Containment, super *xmltree.Tree) (*xmltree.Tree, bool) {
	if ct.Shape == algebra.ShapeConstruct {
		return constructAnswer(ct, super)
	}
	return bindingsAnswer(ct, super, q.topVars)
}

// acceptsLabel is the single-step path test: the path accepts exactly
// the one-label sequence [label]. PathRewrite paths are single-step by
// construction (see algebra.PathRewrite), so a node's own label decides
// its membership.
func acceptsLabel(n *pathexpr.NFA, label string) bool {
	return n.Accepting(n.Step(n.Start(), label))
}

// semBinding is the ValueGetter residual conditions evaluate against in
// the bindings shape: canonical sub variable → materialized value.
type semBinding map[string]*xmltree.Tree

func (g semBinding) Value(name string) (*xmltree.Tree, error) {
	t, ok := g[name]
	if !ok {
		return nil, fmt.Errorf("core: semantic residual references unknown variable %q", name)
	}
	return t, nil
}

// bindingsAnswer rebuilds sub's bs[b[…]…] answer from super's: each b
// is kept iff its positional values pass the path label tests and the
// residual condition, and the kept children are relabeled to sub's
// runtime output variables. Any structural surprise returns ok=false
// and the engine falls back to the source-backed plan.
func bindingsAnswer(ct *algebra.Containment, super *xmltree.Tree, subVars []string) (*xmltree.Tree, bool) {
	if super.Label != "bs" || len(subVars) != len(ct.SubTopVars) {
		return nil, false
	}
	pos := map[string]int{}
	for i, v := range ct.SubTopVars {
		pos[v] = i
	}
	type ptest struct {
		idx int
		nfa *pathexpr.NFA
	}
	tests := make([]ptest, 0, len(ct.Paths))
	for _, pr := range ct.Paths {
		i, ok := pos[pr.Var]
		if !ok {
			return nil, false
		}
		tests = append(tests, ptest{idx: i, nfa: pathexpr.Compile(pr.Sub)})
	}
	out := &xmltree.Tree{Label: "bs"}
	for _, b := range super.Children {
		if b.Label != "b" || len(b.Children) != len(ct.SubTopVars) {
			return nil, false
		}
		vals := make([]*xmltree.Tree, len(b.Children))
		getter := semBinding{}
		for i, ch := range b.Children {
			if len(ch.Children) != 1 {
				return nil, false
			}
			vals[i] = ch.Children[0]
			getter[ct.SubTopVars[i]] = vals[i]
		}
		keep := true
		for _, tst := range tests {
			if !acceptsLabel(tst.nfa, vals[tst.idx].Label) {
				keep = false
				break
			}
		}
		if keep && ct.Residual != nil {
			ok, err := ct.Residual.Eval(getter)
			if err != nil {
				return nil, false
			}
			keep = ok
		}
		if !keep {
			continue
		}
		nb := &xmltree.Tree{Label: "b", Children: make([]*xmltree.Tree, len(vals))}
		for i, v := range vals {
			nb.Children[i] = &xmltree.Tree{Label: subVars[i], Children: []*xmltree.Tree{v}}
		}
		out.Children = append(out.Children, nb)
	}
	return out, true
}

// chainStep is a precompiled ChainOp: the path compiled to a DFA once
// per candidate instead of once per group subtree.
type chainStep struct {
	parent, out string
	dfa         *pathexpr.DFA
	cond        algebra.Cond
}

func compileChain(ops []algebra.ChainOp) []chainStep {
	steps := make([]chainStep, len(ops))
	for i, op := range ops {
		steps[i] = chainStep{parent: op.Parent, out: op.Out, cond: op.Cond}
		if op.Path != nil {
			steps[i].dfa = pathexpr.NewDFA(pathexpr.Compile(op.Path), nil)
		}
	}
	return steps
}

// countChain counts the derivations of a group chain over one
// materialized group subtree: the number of bindings the chain's
// getDescendants/select suffix produces from GroupChainVar ↦ root. It
// reuses the engine's own operator cursors, so chain conditions and
// descents evaluate exactly as the from-source pipeline would.
func countChain(steps []chainStep, root *xmltree.Tree) (int, error) {
	var c cursor = &sliceCursor{buf: []*binding{
		newBinding().with(algebra.GroupChainVar, FromTree(root))}}
	for _, st := range steps {
		if st.dfa != nil {
			c = descendCursor(c, st.parent, st.out, st.dfa)
		} else {
			cond := st.cond
			c = &filterCursor{in: c, pred: func(b *binding) (bool, error) {
				return cond.Eval(b)
			}}
		}
	}
	all, err := drain(c)
	if err != nil {
		return 0, err
	}
	return len(all), nil
}

// constructAnswer rebuilds sub's constructed answer element from
// super's by decoding runs: super's children are, per group context,
// m(T) consecutive copies of the context's group subtree T, where m is
// the super chain's derivation count over T (a function of T alone).
// Grouping consecutive equal children therefore yields runs of length
// contexts·m(T); sub keeps each context's subtree iff its root label
// passes the (possibly restricted) group path and emits q(T) copies,
// q being the sub chain's count. A run length that does not divide by
// m(T) — or m(T) = 0 for a subtree that is nonetheless present — means
// the region does not decode under this containment; ok=false falls
// back to the source-backed plan.
func constructAnswer(ct *algebra.Containment, super *xmltree.Tree) (*xmltree.Tree, bool) {
	// Descend the decoration stack: each level holds exactly one
	// element of the next label; the innermost children are the grouped
	// values the runs decode.
	if len(ct.RootLabels) == 0 || super.Label != ct.RootLabels[0] {
		return nil, false
	}
	inner := super
	for _, l := range ct.RootLabels[1:] {
		if len(inner.Children) != 1 || inner.Children[0].Label != l {
			return nil, false
		}
		inner = inner.Children[0]
	}
	superSteps := compileChain(ct.SuperChain)
	subSteps := compileChain(ct.SubChain)
	var groupNFA *pathexpr.NFA
	if ct.GroupPath != nil {
		groupNFA = pathexpr.Compile(ct.GroupPath.Sub)
	}
	out := &xmltree.Tree{Label: ct.RootLabels[len(ct.RootLabels)-1]}
	kids := inner.Children
	for i := 0; i < len(kids); {
		j := i + 1
		for j < len(kids) && xmltree.Equal(kids[i], kids[j]) {
			j++
		}
		T := kids[i]
		run := j - i
		m, err := countChain(superSteps, T)
		if err != nil || m < 1 || run%m != 0 {
			return nil, false
		}
		contexts := run / m
		if groupNFA == nil || acceptsLabel(groupNFA, T.Label) {
			cnt, err := countChain(subSteps, T)
			if err != nil {
				return nil, false
			}
			for n := 0; n < contexts*cnt; n++ {
				out.Children = append(out.Children, T)
			}
		}
		i = j
	}
	// Re-wrap the decorated levels, innermost out.
	for i := len(ct.RootLabels) - 2; i >= 0; i-- {
		out = &xmltree.Tree{Label: ct.RootLabels[i], Children: []*xmltree.Tree{out}}
	}
	return out, true
}
