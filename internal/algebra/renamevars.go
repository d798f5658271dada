package algebra

import "fmt"

// RenameVars returns a copy of the plan with every variable name mapped
// through f (which must be injective on the plan's variables). It is
// used by view composition to make a view's internal variables disjoint
// from the client query's before splicing the view body into the query
// plan (the query∘view step of the preprocessing phase). f sees the
// variables in a fixed order — inputs first, then the operator's own,
// left to right — so a numbering f is deterministic. A plan holding an
// operator or condition type this package does not define cannot be
// rebuilt and is an error.
func RenameVars(p Op, f func(string) string) (Op, error) {
	r := renamer{f: f}
	out := r.op(p)
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

// renamer is one RenameVars pass; err records the first type it could
// not rebuild. Go evaluates the calls in a composite literal left to
// right, which fixes the order f sees the variables in.
type renamer struct {
	f   func(string) string
	err error
}

func (r *renamer) op(p Op) Op {
	f := r.f
	switch op := p.(type) {
	case *Source:
		return &Source{URL: op.URL, Var: f(op.Var)}
	case *GetDescendants:
		return &GetDescendants{Input: r.op(op.Input), Parent: f(op.Parent), Path: op.Path, Out: f(op.Out)}
	case *Select:
		return &Select{Input: r.op(op.Input), Cond: r.cond(op.Cond)}
	case *Join:
		return &Join{Left: r.op(op.Left), Right: r.op(op.Right), Cond: r.cond(op.Cond)}
	case *GroupBy:
		return &GroupBy{Input: r.op(op.Input), By: r.vars(op.By), Var: f(op.Var), Out: f(op.Out)}
	case *Concatenate:
		return &Concatenate{Input: r.op(op.Input), X: f(op.X), Y: f(op.Y), Out: f(op.Out)}
	case *CreateElement:
		return &CreateElement{Input: r.op(op.Input), Label: r.label(op.Label), Children: f(op.Children), Out: f(op.Out)}
	case *OrderBy:
		return &OrderBy{Input: r.op(op.Input), Keys: r.vars(op.Keys)}
	case *Project:
		return &Project{Input: r.op(op.Input), Keep: r.vars(op.Keep)}
	case *Union:
		return &Union{Left: r.op(op.Left), Right: r.op(op.Right)}
	case *Difference:
		return &Difference{Left: r.op(op.Left), Right: r.op(op.Right)}
	case *Distinct:
		return &Distinct{Input: r.op(op.Input)}
	case *WrapList:
		return &WrapList{Input: r.op(op.Input), Var: f(op.Var), Out: f(op.Out)}
	case *Const:
		return &Const{Input: r.op(op.Input), Value: op.Value, Out: f(op.Out)}
	case *Rename:
		return &Rename{Input: r.op(op.Input), From: f(op.From), To: f(op.To)}
	case *TupleDestroy:
		return &TupleDestroy{Input: r.op(op.Input), Var: f(op.Var)}
	}
	r.fail(fmt.Errorf("algebra: RenameVars: unknown operator %T", p))
	return p
}

func (r *renamer) cond(c Cond) Cond {
	switch c := c.(type) {
	case *Cmp:
		return &Cmp{Op: c.Op, L: r.operand(c.L), R: r.operand(c.R)}
	case *And:
		return &And{L: r.cond(c.L), R: r.cond(c.R)}
	case *Or:
		return &Or{L: r.cond(c.L), R: r.cond(c.R)}
	case *Not:
		return &Not{C: r.cond(c.C)}
	case True:
		return c
	case *LabelMatch:
		return &LabelMatch{Var: r.f(c.Var), Label: c.Label}
	}
	r.fail(fmt.Errorf("algebra: RenameVars: unknown condition %T", c))
	return c
}

func (r *renamer) operand(o Operand) Operand {
	if o.Var != "" {
		return Operand{Var: r.f(o.Var)}
	}
	return o
}

func (r *renamer) label(l LabelSpec) LabelSpec {
	if l.Var != "" {
		return LabelSpec{Var: r.f(l.Var)}
	}
	return l
}

func (r *renamer) vars(vs []string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = r.f(v)
	}
	return out
}

func (r *renamer) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}
