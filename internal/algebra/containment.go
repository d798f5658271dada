package algebra

import (
	"maps"
	"slices"
	"strconv"
	"strings"

	"mix/internal/pathexpr"
)

// This file implements the conservative plan-containment checker behind
// the semantic region cache (DESIGN.md §14). Given two canonicalized
// construct plans — a cached *super* plan and a freshly compiled *sub*
// plan — it decides whether sub's answer element can be rebuilt from
// super's fully materialized one by local work over each grouped
// subtree: a label test on a weakened group path and short
// getDescendants/select chains. The checker is sound and deliberately
// incomplete: it knows one answer shape, lets sub's extra operators
// cross only the operators a XMAS WHERE clause writes, and answers "no"
// to anything else, so the engine falls back to the ordinary
// source-backed plan.

// PathRewrite records the group binding's path restriction: the sub
// plan binds the grouped variable through Sub where the super plan uses
// Super, and Sub is a *single-step* label test — either the sub path
// itself (both paths single-step, L(sub) ⊆ L(super)) or the restricted
// final step of two sequences with an identical prefix (see
// weakenedStep). Either way the restriction is re-verified from the
// materialized subtree alone — test its root label against Sub — which
// is what makes the weakening sound.
type PathRewrite struct {
	Super, Sub *pathexpr.Expr
}

// ChainOp is one operator of a group chain: a getDescendants when Path
// is non-nil (Parent, Out are chain-local variable names), otherwise a
// select over chain-local variables. The chains are locally evaluable:
// starting from a binding of the group variable to a materialized
// subtree, every parent and condition variable is the group variable
// or an earlier chain output.
type ChainOp struct {
	Parent, Out string
	Path        *pathexpr.Expr
	Cond        Cond
}

// GroupChainVar is the variable name both group chains bind the
// materialized group subtree to; chain-local variables are renamed so
// they cannot collide with it.
const GroupChainVar = "g~"

// Containment is the evidence Analyze returns: everything an engine
// needs to rebuild sub's answer from super's materialized answer. Both
// plans are tupleDestroy(createElement(groupBy by {})) constructions;
// sub's answer element is decoded from super's children by runs (see
// DESIGN.md §14.1).
type Containment struct {
	// RootLabels are the answer's decoration labels, outermost first:
	// each level holds exactly one child of the next label, and the
	// innermost element's children are the grouped values.
	RootLabels []string
	// GroupPath is the per-group-subtree label test, nil if the
	// grouping paths agree.
	GroupPath *PathRewrite
	// SuperChain counts the multiplicity each subtree contributed to
	// the innermost children; SubChain counts the multiplicity sub
	// requires. Both bind GroupChainVar to the subtree.
	SuperChain []ChainOp
	SubChain   []ChainOp
}

// Contains reports whether sub's answer can be rebuilt from a fully
// explored region of super's. The residual is always True and paths
// holds the group path restriction, if any; engines use Analyze, which
// returns the whole recipe. Its one caller is the layer pass of bench/
// (algebra.contains_us); it leaves with that pass's port (ROADMAP item
// 17).
func Contains(super, sub Op) (residual Cond, paths []PathRewrite, ok bool) {
	c, ok := Analyze(super, sub)
	if !ok {
		return nil, nil, false
	}
	if c.GroupPath != nil {
		paths = []PathRewrite{*c.GroupPath}
	}
	return True{}, paths, true
}

// Analyze decides containment of sub in super. Both plans must be valid
// (Validate) and in RenameVars normal form (regioncache.Canonical);
// variable names are still compared via an on-the-fly bijection, since
// canonical numbering depends on each plan's own structure. Only
// construct plans are recognized: any other root is "not contained".
//
// Each plan splits into its decoration stack (peelConstruct), the
// select/getDescendants chain under the root groupBy (chainOf) and the
// base below that chain. The bases must match (match), up to selects
// and descents only sub applies; the chains must agree up to the group
// binding, which alone may restrict its path; and what lies above the
// group binding, plus sub's extra base operators, must be evaluable
// from the group subtree alone (localChain), with super's part embedded
// in sub's (embeds).
func Analyze(super, sub Op) (*Containment, bool) {
	s, ok := super.(*TupleDestroy)
	q, okq := sub.(*TupleDestroy)
	if !ok || !okq {
		return nil, false
	}
	sLabels, sGB, ok := peelConstruct(s)
	if !ok {
		return nil, false
	}
	qLabels, qGB, ok := peelConstruct(q)
	if !ok || !slices.Equal(sLabels, qLabels) {
		return nil, false
	}

	sOps, sBase := chainOf(sGB.Input)
	qOps, qBase := chainOf(qGB.Input)
	m := matcher{}
	// Sub's extra base operators survive only as the start of sub's
	// chain: descents and conditions that localChain below certifies
	// as evaluable from the group subtree alone. They then multiply or
	// filter sub's bindings exactly as they did at their plan position
	// — per base binding, hence per group context — which is what the
	// run decode models.
	extra, ok := m.match(sBase, qBase)
	if !ok {
		return nil, false
	}
	si := indexOfOut(sOps, sGB.Var)
	if si != indexOfOut(qOps, qGB.Var) {
		return nil, false
	}
	// A grouped variable bound in the (matched) base makes the whole
	// chains "above the group binding"; otherwise the chains must agree
	// 1:1 up to the group binding, which alone may weaken its path.
	if si < 0 && m[sGB.Var] != qGB.Var {
		return nil, false
	}
	var groupPath *PathRewrite
	for k := 0; k <= si; k++ {
		if groupPath, ok = m.matchChainOp(sOps[k], qOps[k], k == si); !ok {
			return nil, false
		}
	}

	superChain, ok := localChain(sOps[si+1:], sGB.Var, "s~")
	if !ok {
		return nil, false
	}
	// The extra operators sit below sub's above-group chain in the
	// plan, so they come first; match returns them bottom-up, which
	// keeps each descent before its dependents.
	subChain, ok := localChain(append(extra, qOps[si+1:]...), qGB.Var, "q~")
	// Soundness of the run decoding requires: whenever sub derives a
	// binding from a subtree, super derives at least one (a subtree sub
	// needs cannot be absent from super's children). Embedding super's
	// chain into sub's — each super step covered by a sub step at least
	// as strict — gives exactly that.
	if !ok || !embeds(superChain, subChain) {
		return nil, false
	}
	return &Containment{RootLabels: sLabels, GroupPath: groupPath,
		SuperChain: superChain, SubChain: subChain}, true
}

// peelConstruct unwraps the decoration stack of a construction plan:
// tupleDestroy over a constant-label createElement, optionally nesting
// further wrapList(createElement(...)) levels, with the innermost
// createElement's children coming straight from a groupBy with no
// grouping variables. The groupBy yields exactly one binding per input
// list, so each decoration level materializes exactly one element of
// the next label, and the grouped values are the innermost element's
// children. Returns the label stack (outermost first) and the groupBy.
func peelConstruct(td *TupleDestroy) ([]string, *GroupBy, bool) {
	var labels []string
	v, p := td.Var, td.Input
	for {
		ce, ok := p.(*CreateElement)
		if !ok || ce.Out != v || ce.Label.Var != "" {
			return nil, nil, false
		}
		labels = append(labels, ce.Label.Const)
		if gb, ok := ce.Input.(*GroupBy); ok {
			return labels, gb, len(gb.By) == 0 && ce.Children == gb.Out
		}
		wl, ok := ce.Input.(*WrapList)
		if !ok || ce.Children != wl.Out {
			return nil, nil, false
		}
		v, p = wl.Var, wl.Input
	}
}

// chainOf splits a plan into its select/getDescendants spine (bottom-up
// order) and the base below it.
func chainOf(p Op) (ops []Op, base Op) {
	for {
		switch t := p.(type) {
		case *Select:
			ops = append(ops, t)
			p = t.Input
		case *GetDescendants:
			ops = append(ops, t)
			p = t.Input
		default:
			slices.Reverse(ops)
			return ops, p
		}
	}
}

// indexOfOut finds the getDescendants binding v in a chain, -1 if none.
func indexOfOut(ops []Op, v string) int {
	return slices.IndexFunc(ops, func(op Op) bool {
		g, ok := op.(*GetDescendants)
		return ok && g.Out == v
	})
}

// weakenedStep decides whether the sub path restricts the super path in
// a way that a bound node's own label re-verifies, returning the
// single-step label test. Two cases: both paths single-step with
// L(sub) ⊆ L(super) — the test is the sub path itself; or both paths
// are sequences with an *identical* prefix whose final steps are
// single-step with L(subLast) ⊆ L(supLast). A single-step part consumes
// exactly one label, so the sequence split is positionally unique
// (pathexpr.SplitLast): super-membership already certifies the prefix,
// and sub-membership then reduces to the final label alone.
func weakenedStep(sup, sub *pathexpr.Expr) (*pathexpr.Expr, bool) {
	if pathexpr.SingleStep(sup) && pathexpr.SingleStep(sub) && pathexpr.Subset(sub, sup) {
		return sub, true
	}
	supPre, supLast, okSup := pathexpr.SplitLast(sup)
	subPre, subLast, okSub := pathexpr.SplitLast(sub)
	if !okSup || !okSub || subPre != supPre || !pathexpr.Subset(subLast, supLast) {
		return nil, false
	}
	return subLast, true
}

// matcher is the variable bijection between the two canonical
// namespaces: each super binder maps to the sub binder it was paired
// with. Valid plans bind each variable once and every sub binder pairs
// at most once, so the map is injective and a use pairs iff its super
// name maps to its sub name.
type matcher map[string]string

// match compares the super base s against the sub base q, returning
// the operators only sub applies (its extra selects and descents),
// bottom-up. Extra operators hoist through the WHERE clause's descents,
// selects and joins and through an ORDERBY sort; the source wrapper
// XMAS puts above each source matches under the bijection; anything
// else must be the same plan on both sides (same).
func (m matcher) match(s, q Op) ([]Op, bool) {
	switch qt := q.(type) {
	case *Select:
		// Paired first: sub's condition must imply super's, and it
		// stays as an extra filter unless the two are the same
		// condition. Otherwise sub's select is extra and super's must
		// pair further down.
		if st, both := s.(*Select); both {
			m2 := maps.Clone(m)
			if extra, ok := m2.match(st.Input, qt.Input); ok {
				mapped, _ := substCond(st.Cond, m2)
				if mapped.String() == qt.Cond.String() {
					maps.Copy(m, m2)
					return extra, true
				}
				if implies(qt.Cond, mapped) {
					maps.Copy(m, m2)
					return append(extra, qt), true
				}
			}
		}
		extra, ok := m.match(s, qt.Input)
		return append(extra, qt), ok
	case *GetDescendants:
		// Paired first: same parent, path and binder under the
		// bijection. Otherwise sub's descent is extra — it binds a
		// variable super never derives — and super's must pair further
		// down.
		if st, both := s.(*GetDescendants); both {
			m2 := maps.Clone(m)
			if extra, ok := m2.match(st.Input, qt.Input); ok &&
				m2[st.Parent] == qt.Parent && st.Path.String() == qt.Path.String() {
				m2[st.Out] = qt.Out
				maps.Copy(m, m2)
				return extra, true
			}
		}
		extra, ok := m.match(s, qt.Input)
		return append(extra, qt), ok
	}
	switch st := s.(type) {
	case *Source:
		if qt, ok := q.(*Source); ok && st.URL == qt.URL {
			m[st.Var] = qt.Var
			return nil, true
		}
	case *WrapList:
		if qt, ok := q.(*WrapList); ok {
			extra, ok := m.match(st.Input, qt.Input)
			m[st.Out] = qt.Out
			return extra, ok && m[st.Var] == qt.Var
		}
	case *CreateElement:
		if qt, ok := q.(*CreateElement); ok {
			extra, ok := m.match(st.Input, qt.Input)
			m[st.Out] = qt.Out
			return extra, ok && st.Label.Var == "" && st.Label == qt.Label && m[st.Children] == qt.Children
		}
	case *Join:
		// A left-major join keeps each binding's copies consecutive, so
		// extra operators of either side hoist above it. The join
		// conditions must be the same: a residual join condition is
		// never evaluable from one group subtree.
		if qt, ok := q.(*Join); ok {
			el, okl := m.match(st.Left, qt.Left)
			er, okr := m.match(st.Right, qt.Right)
			return append(el, er...), okl && okr && m.sameCond(st.Cond, qt.Cond)
		}
	case *OrderBy:
		// A stable sort commutes with filtering, and with multiplying a
		// binding into consecutive copies of equal keys.
		if qt, ok := q.(*OrderBy); ok {
			extra, ok := m.match(st.Input, qt.Input)
			return extra, ok && slices.EqualFunc(st.Keys, qt.Keys, func(sk, qk string) bool { return m[sk] == qk })
		}
	}
	return nil, m.same(s, q)
}

// same reports whether q is s itself, the rule for every other
// operator — a composed view's body, a nested template — which extra
// operators cannot cross: equal plans produce equal binding lists. A
// plan in normal form numbers its variables in RenameVars' visit
// order, inputs first, so a part the two plans share below everything
// that differs renders to the same text in both, variable names
// included, and pairs each output variable with itself.
func (m matcher) same(s, q Op) bool {
	if _, ok := equalPlans(s, q, nil); !ok {
		return false
	}
	for _, v := range s.OutVars() {
		m[v] = v
	}
	return true
}

// equalPlans compares two plans' renderings node by node, top-down,
// stopping at the first node that differs; buf is scratch space.
func equalPlans(s, q Op, buf []byte) ([]byte, bool) {
	buf = s.appendOp(buf[:0])
	n := len(buf)
	buf = q.appendOp(buf)
	var sIn, qIn [2]Op
	si, qi := inputs(s, &sIn), inputs(q, &qIn)
	if string(buf[:n]) != string(buf[n:]) || len(si) != len(qi) {
		return buf, false
	}
	for i := range si {
		var ok bool
		if buf, ok = equalPlans(si[i], qi[i], buf); !ok {
			return buf, false
		}
	}
	return buf, true
}

// matchChainOp matches one below-group chain position exactly (modulo
// the bijection), allowing path weakening only at the group binding.
// Chains hold only selects and descents.
func (m matcher) matchChainOp(sOp, qOp Op, weaken bool) (*PathRewrite, bool) {
	if st, ok := sOp.(*Select); ok {
		qt, ok := qOp.(*Select)
		return nil, ok && m.sameCond(st.Cond, qt.Cond)
	}
	st := sOp.(*GetDescendants)
	qt, ok := qOp.(*GetDescendants)
	if !ok || m[st.Parent] != qt.Parent {
		return nil, false
	}
	m[st.Out] = qt.Out
	if st.Path.String() == qt.Path.String() {
		return nil, true
	}
	if step, ok := weakenedStep(st.Path, qt.Path); ok && weaken {
		return &PathRewrite{Super: st.Path, Sub: step}, true
	}
	return nil, false
}

// sameCond reports whether super's condition s is sub's q under the
// bijection. Callers match the condition's input first, so every
// variable of s is mapped.
func (m matcher) sameCond(s, q Cond) bool {
	mapped, _ := substCond(s, m)
	return mapped.String() == q.String()
}

// localChain renames an above-group chain into the chain-local
// namespace (group variable → GroupChainVar, outputs prefixed) and
// rejects chains that are not locally evaluable over the group subtree.
func localChain(ops []Op, g, prefix string) ([]ChainOp, bool) {
	sub := map[string]string{g: GroupChainVar}
	out := make([]ChainOp, 0, len(ops))
	for _, op := range ops {
		if t, ok := op.(*Select); ok {
			c, ok := substCond(t.Cond, sub)
			if !ok {
				return nil, false
			}
			out = append(out, ChainOp{Cond: c})
			continue
		}
		t := op.(*GetDescendants)
		p, ok := sub[t.Parent]
		if !ok {
			return nil, false
		}
		sub[t.Out] = prefix + t.Out
		out = append(out, ChainOp{Parent: p, Out: sub[t.Out], Path: t.Path})
	}
	return out, true
}

// embeds checks an order-preserving injective embedding of super's
// chain into sub's: every super getDescendants maps to a sub
// getDescendants with the same (embedded) parent and a path language no
// larger, and every super select to a sub select whose condition
// implies it. Then any sub derivation over a subtree yields a super
// derivation, i.e. sub-count ≥ 1 ⟹ super-count ≥ 1.
func embeds(sup, sub []ChainOp) bool {
	emb := map[string]string{GroupChainVar: GroupChainVar}
	j := 0
	for _, so := range sup {
		for j < len(sub) && !covers(so, sub[j], emb) {
			j++
		}
		if j == len(sub) {
			return false
		}
		j++
	}
	return true
}

// covers reports whether sub step qo is at least as strict as super
// step so under the embedding emb, recording a descent's image.
func covers(so, qo ChainOp, emb map[string]string) bool {
	if so.Path == nil {
		mapped, ok := substCond(so.Cond, emb)
		return ok && qo.Path == nil && implies(qo.Cond, mapped)
	}
	if qo.Path == nil || emb[so.Parent] != qo.Parent || !pathexpr.Subset(qo.Path, so.Path) {
		return false
	}
	emb[so.Out] = qo.Out
	return true
}

// ---------------------------------------------------------------------
// Condition mapping and implication.

// substCond rebuilds c with variables renamed through sub; a variable
// missing from sub fails (the condition is not expressible in the
// target namespace).
func substCond(c Cond, sub map[string]string) (Cond, bool) {
	ok := true
	r := renamer{f: func(v string) string {
		nv, found := sub[v]
		ok = ok && found
		return nv
	}}
	out := r.cond(c)
	return out, ok && r.err == nil
}

// conjuncts flattens nested conjunctions: the rewriter merges cascaded
// selects into one (R3).
func conjuncts(c Cond) []Cond {
	if a, ok := c.(*And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []Cond{c}
}

// implies reports sub ⟹ super: every super conjunct is structurally
// present among sub's conjuncts or implied by one of them (cmpImplies).
// Conservative: anything else is "no".
func implies(sub, super Cond) bool {
	subCs := conjuncts(sub)
	for _, sc := range conjuncts(super) {
		ts := sc.String()
		if !slices.ContainsFunc(subCs, func(c Cond) bool {
			return c.String() == ts || cmpImplies(c, sc)
		}) {
			return false
		}
	}
	return true
}

// litOrderImplies checks the literal-vs-literal relation needed to
// chain two *ordering* comparisons. Eval's compare is numeric when both
// sides parse as floats and lexicographic otherwise; that hybrid order
// is not transitive across kinds (numeric "9" < "10" but lexicographic
// "9" > "10", and data like "1x" always compares lexicographically), so
// chaining x ⊙ a onto x ⊙ b is sound only when a and b are the same
// kind and the relation holds under both the numeric-aware order and
// plain string order — then it holds for numeric and non-numeric data
// alike.
func litOrderImplies(a, b string, rel func(int) bool) bool {
	_, ea := strconv.ParseFloat(a, 64)
	_, eb := strconv.ParseFloat(b, 64)
	if (ea == nil) != (eb == nil) {
		return false
	}
	return rel(Compare(a, b)) && rel(strings.Compare(a, b))
}

func le(c int) bool { return c <= 0 }
func lt(c int) bool { return c < 0 }
func ge(c int) bool { return c >= 0 }
func gt(c int) bool { return c > 0 }

// cmpImplies reports q ⟹ s for two comparisons of one variable against
// literals, the only form XMAS writes (variable on the left). An
// equality premise (x = a holds exactly when x's atom is the string a)
// substitutes a for x, so the engine's hybrid Compare decides directly;
// ordering-to-ordering chains go through litOrderImplies. Equality
// conclusions require the exact literal (Eval's = is string atom
// equality: "5.0" never implies equality with "5"), and inequality
// conclusions use that an atom equal to b compares as b does.
func cmpImplies(qc, sc Cond) bool {
	q, okq := qc.(*Cmp)
	s, oks := sc.(*Cmp)
	if !okq || !oks || q.R.Var != "" || s.R.Var != "" || q.L.Var != s.L.Var {
		return false
	}
	a, b := q.R.Lit, s.R.Lit
	switch s.Op {
	case OpLt: // x < b
		switch q.Op {
		case OpLt:
			return litOrderImplies(a, b, le)
		case OpLe:
			return litOrderImplies(a, b, lt)
		case OpEq:
			return Compare(a, b) < 0
		}
	case OpLe: // x <= b
		switch q.Op {
		case OpLt, OpLe:
			return litOrderImplies(a, b, le)
		case OpEq:
			return Compare(a, b) <= 0
		}
	case OpGt: // x > b
		switch q.Op {
		case OpGt:
			return litOrderImplies(a, b, ge)
		case OpGe:
			return litOrderImplies(a, b, gt)
		case OpEq:
			return Compare(a, b) > 0
		}
	case OpGe: // x >= b
		switch q.Op {
		case OpGt, OpGe:
			return litOrderImplies(a, b, ge)
		case OpEq:
			return Compare(a, b) >= 0
		}
	case OpEq: // x = b (string atom equality)
		return q.Op == OpEq && a == b
	case OpNeq: // x != b: sound when x's atom equal to b would violate q
		switch q.Op {
		case OpNeq:
			return a == b
		case OpEq:
			return a != b
		case OpLt:
			return Compare(a, b) <= 0 // atom(x)=b ⟹ compare(x,a)=compare(b,a) ≥ 0
		case OpLe:
			return Compare(a, b) < 0
		case OpGt:
			return Compare(a, b) >= 0
		case OpGe:
			return Compare(a, b) > 0
		}
	}
	return false
}
