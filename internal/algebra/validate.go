package algebra

import (
	"fmt"
	"slices"
)

// Validate checks that the plan is well-formed: every operator's
// variable references are defined by its input, no operator introduces
// a variable that already exists, Union/Difference inputs agree on
// their variables, and TupleDestroy (if present) is the root over a
// single remaining variable.
func Validate(p Op) error {
	_, err := validate(p)
	return err
}

// varList is the set of variables an operator's output bindings carry.
// Plans carry a handful of variables, so a slice without duplicates is
// scanned rather than hashed.
type varList []string

func (s varList) has(v string) bool { return slices.Contains(s, v) }

// validate returns the variables p's output carries. Its frame is kept
// small: plans nest a dozen operators deep, and the per-operator checks
// (checkOp) sit on the stack one at a time rather than once per level.
func validate(p Op) (varList, error) {
	var opBuf [2]Op
	ins := inputs(p, &opBuf)
	var buf [2]varList // no operator has more than two inputs
	inVars := buf[:len(ins)]
	for i, in := range ins {
		v, err := validate(in)
		if err != nil {
			return nil, err
		}
		inVars[i] = v
	}
	return checkOp(p, inVars)
}

// checkOp checks one operator against the variables its inputs carry
// and returns the variables its output carries.
func checkOp(p Op, inVars []varList) (varList, error) {
	need := func(set varList, name, what string) error {
		if name == "" {
			return fmt.Errorf("algebra: %s: empty variable name in %s", what, p.appendOp(nil))
		}
		if !set.has(name) {
			return fmt.Errorf("algebra: %s: variable $%s not defined by input of %s", what, name, p.appendOp(nil))
		}
		return nil
	}
	fresh := func(set varList, name string) error {
		if name == "" {
			return fmt.Errorf("algebra: empty output variable in %s", p.appendOp(nil))
		}
		if set.has(name) {
			return fmt.Errorf("algebra: output variable $%s of %s shadows an input variable", name, p.appendOp(nil))
		}
		return nil
	}

	switch op := p.(type) {
	case *Source:
		if op.URL == "" || op.Var == "" {
			return nil, fmt.Errorf("algebra: source needs url and variable")
		}
		return varList{op.Var}, nil

	case *GetDescendants:
		in := inVars[0]
		if err := need(in, op.Parent, "getDescendants parent"); err != nil {
			return nil, err
		}
		if op.Path == nil {
			return nil, fmt.Errorf("algebra: getDescendants without path expression")
		}
		if err := fresh(in, op.Out); err != nil {
			return nil, err
		}
		return withVar(in, op.Out), nil

	case *Select:
		in := inVars[0]
		for _, v := range op.Cond.Vars() {
			if err := need(in, v, "select condition"); err != nil {
				return nil, err
			}
		}
		return in, nil

	case *Join:
		l, r := inVars[0], inVars[1]
		for _, v := range l {
			if r.has(v) {
				return nil, fmt.Errorf("algebra: join inputs share variable $%s", v)
			}
		}
		both := append(slices.Clip(l), r...) // disjoint, checked above
		for _, v := range op.Cond.Vars() {
			if err := need(both, v, "join condition"); err != nil {
				return nil, err
			}
		}
		return both, nil

	case *GroupBy:
		in := inVars[0]
		if len(op.By) == 0 {
			// grouping by the empty set is legal (one global group)
		}
		for _, v := range op.By {
			if err := need(in, v, "groupBy key"); err != nil {
				return nil, err
			}
		}
		if err := need(in, op.Var, "groupBy value"); err != nil {
			return nil, err
		}
		if err := fresh(in, op.Out); err != nil {
			return nil, err
		}
		out := varList{op.Out}
		for _, v := range op.By {
			out = add(out, v)
		}
		return out, nil

	case *Concatenate:
		in := inVars[0]
		if err := need(in, op.X, "concatenate x"); err != nil {
			return nil, err
		}
		if err := need(in, op.Y, "concatenate y"); err != nil {
			return nil, err
		}
		if err := fresh(in, op.Out); err != nil {
			return nil, err
		}
		return withVar(in, op.Out), nil

	case *CreateElement:
		in := inVars[0]
		if op.Label.Var != "" {
			if err := need(in, op.Label.Var, "createElement label"); err != nil {
				return nil, err
			}
		} else if op.Label.Const == "" {
			return nil, fmt.Errorf("algebra: createElement with empty constant label")
		}
		if err := need(in, op.Children, "createElement children"); err != nil {
			return nil, err
		}
		if err := fresh(in, op.Out); err != nil {
			return nil, err
		}
		return withVar(in, op.Out), nil

	case *OrderBy:
		in := inVars[0]
		if len(op.Keys) == 0 {
			return nil, fmt.Errorf("algebra: orderBy without keys")
		}
		for _, v := range op.Keys {
			if err := need(in, v, "orderBy key"); err != nil {
				return nil, err
			}
		}
		return in, nil

	case *Project:
		in := inVars[0]
		if len(op.Keep) == 0 {
			return nil, fmt.Errorf("algebra: project keeps no variables")
		}
		out := make(varList, 0, len(op.Keep))
		for _, v := range op.Keep {
			if err := need(in, v, "project"); err != nil {
				return nil, err
			}
			out = add(out, v)
		}
		return out, nil

	case *Union:
		if !sameVars(inVars[0], inVars[1]) {
			return nil, fmt.Errorf("algebra: union inputs carry different variables: %v vs %v",
				names(inVars[0]), names(inVars[1]))
		}
		return inVars[0], nil

	case *Difference:
		if !sameVars(inVars[0], inVars[1]) {
			return nil, fmt.Errorf("algebra: difference inputs carry different variables: %v vs %v",
				names(inVars[0]), names(inVars[1]))
		}
		return inVars[0], nil

	case *Distinct:
		return inVars[0], nil

	case *WrapList:
		in := inVars[0]
		if err := need(in, op.Var, "wrapList"); err != nil {
			return nil, err
		}
		if err := fresh(in, op.Out); err != nil {
			return nil, err
		}
		return withVar(in, op.Out), nil

	case *Const:
		in := inVars[0]
		if op.Value == nil {
			return nil, fmt.Errorf("algebra: const without value")
		}
		if err := fresh(in, op.Out); err != nil {
			return nil, err
		}
		return withVar(in, op.Out), nil

	case *Rename:
		in := inVars[0]
		if err := need(in, op.From, "rename"); err != nil {
			return nil, err
		}
		if op.To == op.From {
			return in, nil
		}
		if err := fresh(in, op.To); err != nil {
			return nil, err
		}
		out := make(varList, 0, len(in))
		for _, k := range in {
			if k != op.From {
				out = append(out, k)
			}
		}
		return append(out, op.To), nil

	case *TupleDestroy:
		in := inVars[0]
		if err := need(in, op.Var, "tupleDestroy"); err != nil {
			return nil, err
		}
		return varList{}, nil

	default:
		return nil, fmt.Errorf("algebra: unknown operator %T", p)
	}
}

// withVar returns set plus v, which the caller checked is fresh.
func withVar(set varList, v string) varList {
	return append(slices.Clip(set), v)
}

// add returns set plus v unless set already has it.
func add(set varList, v string) varList {
	if set.has(v) {
		return set
	}
	return append(set, v)
}

func sameVars(a, b varList) bool {
	if len(a) != len(b) {
		return false
	}
	for _, k := range a {
		if !b.has(k) {
			return false
		}
	}
	return true
}

func names(set varList) []string {
	return slices.Sorted(slices.Values(set))
}
