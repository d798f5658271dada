package algebra

// Query rewriting (the preprocessing phase of Section 3): the initial
// plan obtained from query∘view composition is rewritten into one
// optimized with respect to navigational complexity. The rules here
// are classical algebraic rewrites restated for binding lists:
//
//	R1  selection pushdown through join — a condition referencing only
//	    one side's variables is evaluated below the join, so the lazy
//	    join pulls fewer bindings from the sources;
//	R2  selection pushdown through getDescendants / concatenate /
//	    createElement when the condition does not reference the newly
//	    introduced variable;
//	R3  cascade merge — select(select(x)) ⇒ select with AND, so one
//	    scan serves both conditions;
//	R4  redundant orderBy elimination — orderBy(orderBy(x, k'), k) keeps
//	    only the outer sort (the inner order is destroyed anyway), and
//	    orderBy directly above an identical orderBy collapses;
//	R5  project pruning — project of all input variables is a no-op;
//	R6  trivial selection elimination — select(true) disappears, and an
//	    AND with a true conjunct is simplified;
//	R7  distinct idempotence — distinct(distinct(x)) ⇒ distinct(x);
//	R8  project pushdown through join — a projection splits across the
//	    join inputs (keeping the join-condition variables), so fewer
//	    values are carried upward per binding.
//
// Rewrite applies the rules bottom-up until a fixed point is reached.

// Rewrite returns an equivalent plan optimized for navigational
// complexity. The input plan is not modified; unchanged subtrees are
// shared.
func Rewrite(p Op) Op {
	for {
		q, changed := rewriteOnce(p)
		if !changed {
			return q
		}
		p = q
	}
}

func rewriteOnce(p Op) (Op, bool) {
	// Rewrite inputs first (bottom-up).
	changed := false
	p = MapInputs(p, func(in Op) Op {
		q, c := rewriteOnce(in)
		changed = changed || c
		return q
	})

	switch op := p.(type) {
	case *Select:
		// R6: trivial selections disappear.
		if _, isTrue := op.Cond.(True); isTrue {
			return op.Input, true
		}
		if a, ok := op.Cond.(*And); ok {
			if _, lt := a.L.(True); lt {
				return &Select{Input: op.Input, Cond: a.R}, true
			}
			if _, rt := a.R.(True); rt {
				return &Select{Input: op.Input, Cond: a.L}, true
			}
		}
		// R3: merge cascaded selections.
		if inner, ok := op.Input.(*Select); ok {
			return &Select{Input: inner.Input, Cond: &And{L: inner.Cond, R: op.Cond}}, true
		}
		// R1: push through join.
		if j, ok := op.Input.(*Join); ok {
			lv := varSet(j.Left.OutVars())
			rv := varSet(j.Right.OutVars())
			if allIn(op.Cond.Vars(), lv) {
				return &Join{Left: &Select{Input: j.Left, Cond: op.Cond}, Right: j.Right, Cond: j.Cond}, true
			}
			if allIn(op.Cond.Vars(), rv) {
				return &Join{Left: j.Left, Right: &Select{Input: j.Right, Cond: op.Cond}, Cond: j.Cond}, true
			}
		}
		// R2: push below variable-introducing unary operators when the
		// condition does not mention the new variable.
		switch in := op.Input.(type) {
		case *GetDescendants:
			if !mentions(op.Cond, in.Out) {
				return &GetDescendants{Input: &Select{Input: in.Input, Cond: op.Cond},
					Parent: in.Parent, Path: in.Path, Out: in.Out}, true
			}
		case *Concatenate:
			if !mentions(op.Cond, in.Out) {
				return &Concatenate{Input: &Select{Input: in.Input, Cond: op.Cond},
					X: in.X, Y: in.Y, Out: in.Out}, true
			}
		case *CreateElement:
			if !mentions(op.Cond, in.Out) {
				return &CreateElement{Input: &Select{Input: in.Input, Cond: op.Cond},
					Label: in.Label, Children: in.Children, Out: in.Out}, true
			}
		}
		return p, changed

	case *OrderBy:
		// R4: the outer sort destroys the inner order.
		if inner, ok := op.Input.(*OrderBy); ok {
			return &OrderBy{Input: inner.Input, Keys: op.Keys}, true
		}
		return p, changed

	case *Project:
		// R5: identity projection.
		if sameVarList(op.Keep, op.Input.OutVars()) {
			return op.Input, true
		}
		// R8: split the projection across a join, retaining the
		// join-condition variables on each side.
		if j, ok := op.Input.(*Join); ok {
			keep := varSet(op.Keep)
			for _, v := range j.Cond.Vars() {
				keep[v] = true
			}
			l := intersect(j.Left.OutVars(), keep)
			r := intersect(j.Right.OutVars(), keep)
			// Only rewrite when both sides actually shrink and stay
			// nonempty (Project requires ≥ 1 variable).
			if len(l) > 0 && len(r) > 0 &&
				(len(l) < len(j.Left.OutVars()) || len(r) < len(j.Right.OutVars())) {
				pushed := &Join{
					Left:  &Project{Input: j.Left, Keep: l},
					Right: &Project{Input: j.Right, Keep: r},
					Cond:  j.Cond,
				}
				if sameVarList(op.Keep, pushed.OutVars()) {
					return pushed, true
				}
				return &Project{Input: pushed, Keep: op.Keep}, true
			}
		}
		return p, changed

	case *Distinct:
		// R7: distinct is idempotent.
		if _, ok := op.Input.(*Distinct); ok {
			return op.Input, true
		}
		return p, changed
	}
	return p, changed
}

// intersect keeps the vars (in order) that appear in the set.
func intersect(vars []string, set map[string]bool) []string {
	var out []string
	for _, v := range vars {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
}

func varSet(vars []string) map[string]bool {
	s := make(map[string]bool, len(vars))
	for _, v := range vars {
		s[v] = true
	}
	return s
}

func allIn(vars []string, set map[string]bool) bool {
	for _, v := range vars {
		if !set[v] {
			return false
		}
	}
	return true
}

func mentions(c Cond, v string) bool {
	for _, x := range c.Vars() {
		if x == v {
			return true
		}
	}
	return false
}

func sameVarList(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := varSet(b)
	for _, v := range a {
		if !set[v] {
			return false
		}
	}
	return true
}

// OpCount returns the number of operators in the plan, a crude plan
// size measure used by the rewriting experiment.
func OpCount(p Op) int {
	n := 0
	Walk(p, func(Op) { n++ })
	return n
}
