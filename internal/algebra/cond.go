package algebra

import (
	"fmt"
	"strconv"
	"strings"

	"mix/internal/xmltree"
)

// Cond is a condition over a single (possibly joined) variable binding,
// used by Select and Join. Conditions compare the values bound to
// variables — for leaf-valued variables (the common case: a zip code, a
// price) comparison is on the atomic datum, numerically when both sides
// parse as numbers; for element-valued variables equality is structural
// tree equality and ordering compares text content.
type Cond interface {
	// Eval evaluates the condition against a binding accessor.
	Eval(b ValueGetter) (bool, error)
	// Vars returns the variables the condition references.
	Vars() []string
	// EquiKeys returns the variable pairs whose equality the condition
	// *implies*: every [2]string{a, b} is a conjunct a = b of the
	// condition, so any binding satisfying the condition has equal (in
	// the Eval sense) values for a and b. Engines use the pairs to
	// compile a Join into a hash equi-join; a nil result means the
	// condition has no top-level conjunctive variable equality and the
	// join must fall back to nested loops. The extraction is structural
	// and conservative: disjunctions, negations and literal comparisons
	// contribute nothing.
	EquiKeys() [][2]string
	fmt.Stringer
}

// ValueGetter provides the value bound to a variable. The lazy engine
// passes an accessor that materializes only the requested variable's
// subtree (typically a small leaf like a zip code); the eager engine
// passes a map lookup.
type ValueGetter interface {
	Value(name string) (*xmltree.Tree, error)
}

// Operand is a side of a comparison: a variable reference or a literal.
type Operand struct {
	Var string // non-empty: variable reference
	Lit string // literal value, when Var == ""
}

// V returns a variable operand.
func V(name string) Operand { return Operand{Var: name} }

// Lit returns a literal operand.
func Lit(s string) Operand { return Operand{Lit: s} }

func (o Operand) String() string { return string(o.appendTo(nil)) }

func (o Operand) appendTo(b []byte) []byte {
	if o.Var != "" {
		return append(append(b, '$'), o.Var...)
	}
	return strconv.AppendQuote(b, o.Lit)
}

// value evaluates o against b. A literal is always a leaf, so it is
// compared through its Lit directly and never built into a tree.
func (o Operand) value(b ValueGetter) (side, error) {
	if o.Var == "" {
		return side{lit: o.Lit}, nil
	}
	t, err := b.Value(o.Var)
	return side{tree: t}, err
}

// side is one evaluated comparison operand: a variable's value tree, or
// (tree nil) a literal leaf whose atom is lit.
type side struct {
	tree *xmltree.Tree
	lit  string
}

func (s side) isLeaf() bool { return s.tree == nil || s.tree.IsLeaf() }

// atom reduces the side to a comparable string: a leaf's label, or the
// text content for elements (so zip[91220] compares as "91220").
func (s side) atom() string {
	if s.tree == nil {
		return s.lit
	}
	return s.tree.TextContent()
}

// Compare orders two atomic values numerically when both parse as
// floats, lexicographically otherwise. It is the ordering used by
// comparisons and by orderBy.
func Compare(a, b string) int { return compare(a, b) }

// compare orders two values numerically when both parse as floats,
// lexicographically otherwise.
func compare(a, b string) int {
	fa, ea := strconv.ParseFloat(a, 64)
	fb, eb := strconv.ParseFloat(b, 64)
	if ea == nil && eb == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

// CmpOp is a comparison operator.
type CmpOp string

// Comparison operators.
const (
	OpEq  CmpOp = "="
	OpNeq CmpOp = "!="
	OpLt  CmpOp = "<"
	OpLe  CmpOp = "<="
	OpGt  CmpOp = ">"
	OpGe  CmpOp = ">="
)

// Cmp compares two operands.
type Cmp struct {
	Op   CmpOp
	L, R Operand
}

// Eq is shorthand for an equality comparison.
func Eq(l, r Operand) *Cmp { return &Cmp{Op: OpEq, L: l, R: r} }

// Eval implements Cond.
func (c *Cmp) Eval(b ValueGetter) (bool, error) {
	lv, err := c.L.value(b)
	if err != nil {
		return false, err
	}
	rv, err := c.R.value(b)
	if err != nil {
		return false, err
	}
	if c.Op == OpEq || c.Op == OpNeq {
		// Structural equality when both sides are elements; atomic
		// comparison otherwise (covers zip[91220] = "91220").
		var eq bool
		if !lv.isLeaf() && !rv.isLeaf() {
			eq = xmltree.Equal(lv.tree, rv.tree)
		} else {
			eq = lv.atom() == rv.atom()
		}
		if c.Op == OpEq {
			return eq, nil
		}
		return !eq, nil
	}
	cmp := compare(lv.atom(), rv.atom())
	switch c.Op {
	case OpLt:
		return cmp < 0, nil
	case OpLe:
		return cmp <= 0, nil
	case OpGt:
		return cmp > 0, nil
	case OpGe:
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("algebra: unknown comparison operator %q", c.Op)
}

// Vars implements Cond.
func (c *Cmp) Vars() []string {
	var out []string
	if c.L.Var != "" {
		out = append(out, c.L.Var)
	}
	if c.R.Var != "" {
		out = append(out, c.R.Var)
	}
	return out
}

// EquiKeys implements Cond: a variable-to-variable equality is the base
// case of the extraction.
func (c *Cmp) EquiKeys() [][2]string {
	if c.Op == OpEq && c.L.Var != "" && c.R.Var != "" {
		return [][2]string{{c.L.Var, c.R.Var}}
	}
	return nil
}

func (c *Cmp) String() string { return string(appendCond(nil, c)) }

// And is conjunction.
type And struct{ L, R Cond }

// Eval implements Cond.
func (a *And) Eval(b ValueGetter) (bool, error) {
	l, err := a.L.Eval(b)
	if err != nil || !l {
		return false, err
	}
	return a.R.Eval(b)
}

// Vars implements Cond.
func (a *And) Vars() []string { return append(a.L.Vars(), a.R.Vars()...) }

// EquiKeys implements Cond: a conjunction implies the equalities implied
// by either side.
func (a *And) EquiKeys() [][2]string { return append(a.L.EquiKeys(), a.R.EquiKeys()...) }

func (a *And) String() string { return string(appendCond(nil, a)) }

// Or is disjunction.
type Or struct{ L, R Cond }

// Eval implements Cond.
func (o *Or) Eval(b ValueGetter) (bool, error) {
	l, err := o.L.Eval(b)
	if err != nil || l {
		return l, err
	}
	return o.R.Eval(b)
}

// Vars implements Cond.
func (o *Or) Vars() []string { return append(o.L.Vars(), o.R.Vars()...) }

// EquiKeys implements Cond: a disjunction implies neither side's
// equalities.
func (o *Or) EquiKeys() [][2]string { return nil }

func (o *Or) String() string { return string(appendCond(nil, o)) }

// Not is negation.
type Not struct{ C Cond }

// Eval implements Cond.
func (n *Not) Eval(b ValueGetter) (bool, error) {
	v, err := n.C.Eval(b)
	return !v, err
}

// Vars implements Cond.
func (n *Not) Vars() []string { return n.C.Vars() }

// EquiKeys implements Cond.
func (n *Not) EquiKeys() [][2]string { return nil }

func (n *Not) String() string { return string(appendCond(nil, n)) }

// True is the always-true condition (turns Join into a product).
type True struct{}

// Eval implements Cond.
func (True) Eval(ValueGetter) (bool, error) { return true, nil }

// Vars implements Cond.
func (True) Vars() []string { return nil }

// EquiKeys implements Cond.
func (True) EquiKeys() [][2]string { return nil }

func (True) String() string { return "true" }

// LabelMatch tests the *label* of the value bound to Var against a
// constant; it corresponds to the sibling-selection predicate σ of
// Section 2 and to XMAS tag tests.
type LabelMatch struct {
	Var   string
	Label string
}

// Eval implements Cond.
func (m *LabelMatch) Eval(b ValueGetter) (bool, error) {
	v, err := b.Value(m.Var)
	if err != nil {
		return false, err
	}
	return v != nil && v.Label == m.Label, nil
}

// Vars implements Cond.
func (m *LabelMatch) Vars() []string { return []string{m.Var} }

// EquiKeys implements Cond.
func (m *LabelMatch) EquiKeys() [][2]string { return nil }

func (m *LabelMatch) String() string { return string(appendCond(nil, m)) }

// appendCond appends c's rendering to b: the byte-for-byte output
// fmt's %s gives c, a nil condition included, without fmt. A condition
// type from outside the package renders through its String method.
func appendCond(b []byte, c Cond) []byte {
	switch c := c.(type) {
	case nil:
		return append(b, "%!s(<nil>)"...)
	case *Cmp:
		b = append(c.L.appendTo(b), ' ')
		b = append(append(b, c.Op...), ' ')
		return c.R.appendTo(b)
	case *And:
		return appendJunction(b, c.L, " AND ", c.R)
	case *Or:
		return appendJunction(b, c.L, " OR ", c.R)
	case *Not:
		return appendCond(append(b, "NOT "...), c.C)
	case True:
		return append(b, "true"...)
	case *LabelMatch:
		b = append(append(append(b, "label($"...), c.Var...), ") = "...)
		return strconv.AppendQuote(b, c.Label)
	default:
		return append(b, c.String()...)
	}
}

func appendJunction(b []byte, l Cond, op string, r Cond) []byte {
	b = append(appendCond(append(b, '('), l), op...)
	return append(appendCond(b, r), ')')
}
