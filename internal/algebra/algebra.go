// Package algebra defines the XMAS algebra (Section 3): logical query
// plans whose operators consume and produce *lists of variable
// bindings*, conventionally pictured as trees
//
//	bs[ b[ X[x1], Y[y1] ], b[ X[x2], Y[y2] ], … ]
//
// The operators are the conventional relational ones (σ, ⋈, ×, ∪, \, δ,
// π) lifted to binding lists, plus the XML-specific ones:
// getDescendants (generalized path expressions), groupBy (explicit
// grouping, in place of Skolem functions), concatenate, createElement,
// orderBy, tupleDestroy and source.
//
// A plan is a tree of Op values. Plans are *logical*: they are
// interpreted either eagerly (package eager) or as a tree of lazy
// mediators (package core). The package also provides plan validation,
// pretty-printing, the browsability classifier of Definition 2, and the
// navigational-complexity rewriting rules used in preprocessing.
package algebra

import (
	"strconv"

	"mix/internal/pathexpr"
)

// Op is a node of an algebra plan. Every operator lists the variables
// its output bindings carry via OutVars; Walk reaches its inputs and
// MapInputs rebuilds it around new ones.
type Op interface {
	// OutVars returns the variable names carried by output bindings,
	// in binding-tree order, given the input variable lists.
	OutVars() []string
	// appendOp appends the rendering of just this node (without
	// inputs) to b.
	appendOp(b []byte) []byte
}

// Source produces the singleton binding list bs[b[v[e]]] where e is the
// root element of the named source (source_url→v).
type Source struct {
	// URL names a registered source.
	URL string
	// Var is the variable bound to the source root.
	Var string
}

// OutVars implements Op.
func (s *Source) OutVars() []string { return []string{s.Var} }

func (s *Source) appendOp(b []byte) []byte {
	b = append(append(append(b, "source["...), s.URL...), "→$"...)
	return append(append(b, s.Var...), ']')
}

// GetDescendants extracts, for each input binding b and each descendant
// d of b.Parent reachable by a downward path matching Path, the output
// binding b + Out[d] (getDescendants_{e,re→ch}).
type GetDescendants struct {
	Input Op
	// Parent is the variable holding the context element.
	Parent string
	// Path is the generalized regular path expression.
	Path *pathexpr.Expr
	// Out is the new variable bound to each reachable descendant.
	Out string
}

// OutVars implements Op.
func (g *GetDescendants) OutVars() []string { return append(g.Input.OutVars(), g.Out) }

func (g *GetDescendants) appendOp(b []byte) []byte {
	b = append(append(append(b, "getDescendants[$"...), g.Parent...), ", "...)
	return appendArrow(append(b, g.Path.String()...), g.Out)
}

// Select keeps only the input bindings satisfying Cond (σ).
type Select struct {
	Input Op
	Cond  Cond
}

// OutVars implements Op.
func (s *Select) OutVars() []string { return s.Input.OutVars() }

func (s *Select) appendOp(b []byte) []byte {
	return append(appendCond(append(b, "select["...), s.Cond), ']')
}

// Join produces, for each pair of left/right bindings satisfying Cond,
// their concatenation (nested-loops ⋈; with a trivially true condition
// it is the product ×).
type Join struct {
	Left, Right Op
	Cond        Cond
}

// OutVars implements Op.
func (j *Join) OutVars() []string { return append(j.Left.OutVars(), j.Right.OutVars()...) }

func (j *Join) appendOp(b []byte) []byte {
	return append(appendCond(append(b, "join["...), j.Cond), ']')
}

// GroupBy groups the bindings of Var by the values of the By variables
// (groupBy_{v1..vk, v→l}): for each group agreeing on the By values one
// output binding b[v1[…],…,vk[…], Out[list[…grouped Var values…]]] is
// produced, in order of first occurrence.
type GroupBy struct {
	Input Op
	By    []string
	Var   string
	Out   string
}

// OutVars implements Op.
func (g *GroupBy) OutVars() []string { return append(append([]string{}, g.By...), g.Out) }

func (g *GroupBy) appendOp(b []byte) []byte {
	b = append(b, "groupBy[{"...)
	if len(g.By) > 0 {
		b = appendVars(b, g.By)
	}
	b = append(append(append(b, "} $"...), g.Var...), " → $"...)
	return append(append(b, g.Out...), ']')
}

// Concatenate produces b + Out[conc] where conc is the list
// concatenation of b.X and b.Y, flattening list[…] values on either
// side (concatenate_{x,y→z}).
type Concatenate struct {
	Input Op
	X, Y  string
	Out   string
}

// OutVars implements Op.
func (c *Concatenate) OutVars() []string { return append(c.Input.OutVars(), c.Out) }

func (c *Concatenate) appendOp(b []byte) []byte {
	b = append(append(append(b, "concatenate[$"...), c.X...), ",$"...)
	return appendArrow(append(b, c.Y...), c.Out)
}

// LabelSpec is the label parameter of createElement: either a constant
// or a variable whose bound value's text provides the label.
type LabelSpec struct {
	Const string
	Var   string // non-empty means dynamic label
}

func (l LabelSpec) String() string { return string(l.appendTo(nil)) }

func (l LabelSpec) appendTo(b []byte) []byte {
	if l.Var != "" {
		return append(append(b, '$'), l.Var...)
	}
	return strconv.AppendQuote(b, l.Const)
}

// CreateElement produces b + Out[l[c1…cn]] where l is the value of
// Label and c1…cn are the children of b.Children — the subtrees of the
// value bound to Children, with a list[…] value contributing its
// elements (createElement_{label,ch→e}).
type CreateElement struct {
	Input    Op
	Label    LabelSpec
	Children string
	Out      string
}

// OutVars implements Op.
func (c *CreateElement) OutVars() []string { return append(c.Input.OutVars(), c.Out) }

func (c *CreateElement) appendOp(b []byte) []byte {
	b = append(c.Label.appendTo(append(b, "createElement["...)), ", $"...)
	return appendArrow(append(b, c.Children...), c.Out)
}

// OrderBy reorders the bindings by the values of the Keys variables
// (ascending, numeric-aware). It is the paper's canonical unbrowsable
// operator: no output binding can be produced before the whole input
// has been seen.
type OrderBy struct {
	Input Op
	Keys  []string
}

// OutVars implements Op.
func (o *OrderBy) OutVars() []string { return o.Input.OutVars() }

func (o *OrderBy) appendOp(b []byte) []byte {
	return append(appendVars(append(b, "orderBy["...), o.Keys), ']')
}

// Project keeps only the named variables of each binding (π).
type Project struct {
	Input Op
	Keep  []string
}

// OutVars implements Op.
func (p *Project) OutVars() []string { return append([]string{}, p.Keep...) }

func (p *Project) appendOp(b []byte) []byte {
	return append(appendVars(append(b, "project["...), p.Keep), ']')
}

// Union appends the right binding list after the left (∪, list
// semantics: duplicates preserved, order left-then-right). Both inputs
// must carry the same variables.
type Union struct {
	Left, Right Op
}

// OutVars implements Op.
func (u *Union) OutVars() []string { return u.Left.OutVars() }

func (u *Union) appendOp(b []byte) []byte { return append(b, "union"...) }

// Difference removes from the left list every binding structurally
// equal to some right binding (\). Unbrowsable on the right input.
type Difference struct {
	Left, Right Op
}

// OutVars implements Op.
func (d *Difference) OutVars() []string { return d.Left.OutVars() }

func (d *Difference) appendOp(b []byte) []byte { return append(b, "difference"...) }

// Distinct removes duplicate bindings, keeping first occurrences (δ).
type Distinct struct {
	Input Op
}

// OutVars implements Op.
func (d *Distinct) OutVars() []string { return d.Input.OutVars() }

func (d *Distinct) appendOp(b []byte) []byte { return append(b, "distinct"...) }

// TupleDestroy unwraps the singleton binding list bs[b[v[e]]] and
// returns the element e as the final document. It is always the plan
// root.
type TupleDestroy struct {
	Input Op
	Var   string
}

// OutVars implements Op.
func (t *TupleDestroy) OutVars() []string { return nil }

func (t *TupleDestroy) appendOp(b []byte) []byte {
	return append(append(append(b, "tupleDestroy[$"...), t.Var...), ']')
}

// String renders the plan as an indented operator tree, root first, in
// the style of Fig. 4, into one buffer.
func String(p Op) string { return string(appendPlan(make([]byte, 0, 2048), p, 0)) }

func appendPlan(b []byte, p Op, depth int) []byte {
	for range depth {
		b = append(b, "  "...)
	}
	b = append(p.appendOp(b), '\n')
	var buf [2]Op
	for _, in := range inputs(p, &buf) {
		b = appendPlan(b, in, depth+1)
	}
	return b
}

// inputs returns p's input plans, outermost first, in buf, so a walk
// of a plan allocates nothing for it.
func inputs(p Op, buf *[2]Op) []Op {
	switch op := p.(type) {
	case *Join:
		buf[0], buf[1] = op.Left, op.Right
		return buf[:]
	case *Union:
		buf[0], buf[1] = op.Left, op.Right
		return buf[:]
	case *Difference:
		buf[0], buf[1] = op.Left, op.Right
		return buf[:]
	case *GetDescendants:
		buf[0] = op.Input
	case *Select:
		buf[0] = op.Input
	case *GroupBy:
		buf[0] = op.Input
	case *Concatenate:
		buf[0] = op.Input
	case *CreateElement:
		buf[0] = op.Input
	case *OrderBy:
		buf[0] = op.Input
	case *Project:
		buf[0] = op.Input
	case *Distinct:
		buf[0] = op.Input
	case *TupleDestroy:
		buf[0] = op.Input
	case *WrapList:
		buf[0] = op.Input
	case *Const:
		buf[0] = op.Input
	case *Rename:
		buf[0] = op.Input
	default: // *Source
		return nil
	}
	return buf[:1]
}

// MapInputs returns a copy of p with each input replaced by fn(input),
// outermost first; if fn is the identity on every input, p itself is
// returned. It is the one way a plan is rebuilt around new inputs:
// rewriting, literal binding and view composition all go through it.
func MapInputs(p Op, fn func(Op) Op) Op {
	switch op := p.(type) {
	case *GetDescendants:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &GetDescendants{Input: in, Parent: op.Parent, Path: op.Path, Out: op.Out}
	case *Select:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &Select{Input: in, Cond: op.Cond}
	case *Join:
		l, r := fn(op.Left), fn(op.Right)
		if l == op.Left && r == op.Right {
			return op
		}
		return &Join{Left: l, Right: r, Cond: op.Cond}
	case *GroupBy:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &GroupBy{Input: in, By: op.By, Var: op.Var, Out: op.Out}
	case *Concatenate:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &Concatenate{Input: in, X: op.X, Y: op.Y, Out: op.Out}
	case *CreateElement:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &CreateElement{Input: in, Label: op.Label, Children: op.Children, Out: op.Out}
	case *OrderBy:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &OrderBy{Input: in, Keys: op.Keys}
	case *Project:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &Project{Input: in, Keep: op.Keep}
	case *Union:
		l, r := fn(op.Left), fn(op.Right)
		if l == op.Left && r == op.Right {
			return op
		}
		return &Union{Left: l, Right: r}
	case *Difference:
		l, r := fn(op.Left), fn(op.Right)
		if l == op.Left && r == op.Right {
			return op
		}
		return &Difference{Left: l, Right: r}
	case *Distinct:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &Distinct{Input: in}
	case *TupleDestroy:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &TupleDestroy{Input: in, Var: op.Var}
	case *WrapList:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &WrapList{Input: in, Var: op.Var, Out: op.Out}
	case *Const:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &Const{Input: in, Value: op.Value, Out: op.Out}
	case *Rename:
		in := fn(op.Input)
		if in == op.Input {
			return op
		}
		return &Rename{Input: in, From: op.From, To: op.To}
	}
	return p // *Source
}

// appendVars appends vars as "$a,$b,…".
func appendVars(b []byte, vars []string) []byte {
	for i, v := range vars {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, '$'), v...)
	}
	return b
}

// appendArrow appends " → $out]", the tail of most renderings.
func appendArrow(b []byte, out string) []byte {
	return append(append(append(b, " → $"...), out...), ']')
}

// Walk visits p and all its descendants, root first.
func Walk(p Op, fn func(Op)) {
	fn(p)
	var buf [2]Op
	for _, in := range inputs(p, &buf) {
		Walk(in, fn)
	}
}

// Sources returns the names of all sources referenced by the plan, in
// left-to-right order, with duplicates preserved.
func Sources(p Op) []string {
	var out []string
	Walk(p, func(op Op) {
		if s, ok := op.(*Source); ok {
			out = append(out, s.URL)
		}
	})
	return out
}
