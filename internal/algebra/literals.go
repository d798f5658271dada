package algebra

import "mix/internal/xmltree"

// BindLiterals returns p with every literal that is a key of lits
// replaced by its value: the literal operands of comparisons and the
// labels of const trees. An operator with no such literal below it is
// shared with p, which is not modified.
func BindLiterals(p Op, lits map[string]string) Op {
	q := MapInputs(p, func(in Op) Op { return BindLiterals(in, lits) })
	switch op := q.(type) {
	case *Select:
		if c, ok := bindCond(op.Cond, lits); ok {
			return &Select{Input: op.Input, Cond: c}
		}
	case *Join:
		if c, ok := bindCond(op.Cond, lits); ok {
			return &Join{Left: op.Left, Right: op.Right, Cond: c}
		}
	case *Const:
		if v, ok := bindTree(op.Value, lits); ok {
			return &Const{Input: op.Input, Value: v, Out: op.Out}
		}
	}
	return q
}

// bindCond returns c with its literals bound through lits, and whether
// any was.
func bindCond(c Cond, lits map[string]string) (Cond, bool) {
	switch c := c.(type) {
	case *Cmp:
		l, lok := bindOperand(c.L, lits)
		r, rok := bindOperand(c.R, lits)
		if lok || rok {
			return &Cmp{Op: c.Op, L: l, R: r}, true
		}
	case *And:
		l, lok := bindCond(c.L, lits)
		r, rok := bindCond(c.R, lits)
		if lok || rok {
			return &And{L: l, R: r}, true
		}
	case *Or:
		l, lok := bindCond(c.L, lits)
		r, rok := bindCond(c.R, lits)
		if lok || rok {
			return &Or{L: l, R: r}, true
		}
	case *Not:
		if in, ok := bindCond(c.C, lits); ok {
			return &Not{C: in}, true
		}
	}
	return c, false
}

func bindOperand(o Operand, lits map[string]string) (Operand, bool) {
	if o.Var != "" {
		return o, false
	}
	v, ok := lits[o.Lit]
	if !ok {
		return o, false
	}
	return Lit(v), true
}

// bindTree returns t with its labels bound through lits, and whether
// any was; unchanged subtrees are shared.
func bindTree(t *xmltree.Tree, lits map[string]string) (*xmltree.Tree, bool) {
	if t == nil {
		return nil, false
	}
	label, changed := lits[t.Label]
	if !changed {
		label = t.Label
	}
	var kids []*xmltree.Tree
	for i, k := range t.Children {
		nk, ok := bindTree(k, lits)
		if ok && kids == nil {
			kids = append(make([]*xmltree.Tree, 0, len(t.Children)), t.Children[:i]...)
		}
		if kids != nil {
			kids = append(kids, nk)
		}
	}
	if kids == nil {
		if !changed {
			return t, false
		}
		kids = t.Children
	}
	return &xmltree.Tree{Label: label, Children: kids}, true
}
