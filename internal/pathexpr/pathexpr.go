// Package pathexpr implements the generalized regular path expressions
// of XMAS (Section 3): expressions over element labels built from
//
//	label      — match one edge with exactly this label
//	_          — match one edge with any label (wildcard)
//	p.q        — concatenation (a path matching p followed by one matching q)
//	p|q        — alternation
//	p*         — zero or more repetitions
//	p+         — one or more repetitions
//	p?         — optional
//	( … )      — grouping
//
// A path expression denotes a set of label sequences; getDescendants
// extracts the descendants of a node reachable by a downward path whose
// edge-label sequence matches the expression.
//
// Expressions compile to a Thompson NFA that is stepped label-by-label
// during lazy descent: the engine never materializes the set of matches
// up front, it asks the matcher "can this prefix still lead to a match?"
// (Alive) and "does the path so far match?" (Accepting) as it navigates.
package pathexpr

import (
	"fmt"
	"strings"
	"sync"
)

// Expr is a parsed path expression. It is immutable, so its rendering
// is computed once, on first use.
type Expr struct {
	root node
	src  string

	strOnce sync.Once
	str     string
}

// node is the expression AST.
type node interface{ str() string }

type atomNode struct{ label string }
type wildNode struct{}
type seqNode struct{ parts []node }
type altNode struct{ alts []node }
type starNode struct{ sub node }
type plusNode struct{ sub node }
type optNode struct{ sub node }

func (n atomNode) str() string { return n.label }
func (wildNode) str() string   { return "_" }
func (n seqNode) str() string {
	parts := make([]string, len(n.parts))
	for i, p := range n.parts {
		parts[i] = maybeParen(p)
	}
	return strings.Join(parts, ".")
}
func (n altNode) str() string {
	alts := make([]string, len(n.alts))
	for i, a := range n.alts {
		alts[i] = a.str()
	}
	return "(" + strings.Join(alts, "|") + ")"
}
func (n starNode) str() string { return maybeParen(n.sub) + "*" }
func (n plusNode) str() string { return maybeParen(n.sub) + "+" }
func (n optNode) str() string  { return maybeParen(n.sub) + "?" }

func maybeParen(n node) string {
	switch n.(type) {
	case seqNode, altNode:
		return "(" + n.str() + ")"
	}
	return n.str()
}

// String returns a normalized rendering of the expression.
func (e *Expr) String() string {
	if e == nil || e.root == nil {
		return ""
	}
	e.strOnce.Do(func() { e.str = e.root.str() })
	return e.str
}

// Source returns the original text the expression was parsed from.
func (e *Expr) Source() string { return e.src }

// Parse parses a path expression.
func Parse(src string) (*Expr, error) {
	p := &exprParser{src: src}
	n, err := p.alternation()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("pathexpr: unexpected %q at offset %d in %q", p.src[p.pos], p.pos, src)
	}
	return &Expr{root: n, src: src}, nil
}

// MustParse is Parse for tests and literals; it panics on error.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skip() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

// alternation := sequence ('|' sequence)*
func (p *exprParser) alternation() (node, error) {
	first, err := p.sequence()
	if err != nil {
		return nil, err
	}
	alts := []node{first}
	for {
		p.skip()
		if p.peek() != '|' {
			break
		}
		p.pos++
		n, err := p.sequence()
		if err != nil {
			return nil, err
		}
		alts = append(alts, n)
	}
	if len(alts) == 1 {
		return alts[0], nil
	}
	return altNode{alts: alts}, nil
}

// sequence := repeat ('.' repeat)*
func (p *exprParser) sequence() (node, error) {
	first, err := p.repeat()
	if err != nil {
		return nil, err
	}
	parts := []node{first}
	for {
		p.skip()
		if p.peek() != '.' {
			break
		}
		p.pos++
		n, err := p.repeat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return seqNode{parts: parts}, nil
}

// repeat := primary ('*' | '+' | '?')*
func (p *exprParser) repeat() (node, error) {
	n, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		p.skip()
		switch p.peek() {
		case '*':
			p.pos++
			n = starNode{sub: n}
		case '+':
			p.pos++
			n = plusNode{sub: n}
		case '?':
			p.pos++
			n = optNode{sub: n}
		default:
			return n, nil
		}
	}
}

// primary := '_' | label | '(' alternation ')'
func (p *exprParser) primary() (node, error) {
	p.skip()
	c := p.peek()
	switch {
	case c == '(':
		p.pos++
		n, err := p.alternation()
		if err != nil {
			return nil, err
		}
		p.skip()
		if p.peek() != ')' {
			return nil, fmt.Errorf("pathexpr: missing ')' at offset %d in %q", p.pos, p.src)
		}
		p.pos++
		return n, nil
	case c == '_' && !isLabelChar(p.at(p.pos+1)):
		p.pos++
		return wildNode{}, nil
	case isLabelStart(c):
		start := p.pos
		for p.pos < len(p.src) && isLabelChar(p.src[p.pos]) {
			p.pos++
		}
		return atomNode{label: p.src[start:p.pos]}, nil
	case c == 0:
		return nil, fmt.Errorf("pathexpr: unexpected end of expression %q", p.src)
	default:
		return nil, fmt.Errorf("pathexpr: unexpected %q at offset %d in %q", c, p.pos, p.src)
	}
}

func (p *exprParser) at(i int) byte {
	if i >= len(p.src) {
		return 0
	}
	return p.src[i]
}

func isLabelStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isLabelChar(c byte) bool {
	return isLabelStart(c) || c == '-'
}

// IsRecursive reports whether the expression contains unbounded
// repetition (* or +). The lazy getDescendants mediator keeps a
// frontier cache only for recursive expressions (Section 3).
func (e *Expr) IsRecursive() bool { return isRecursive(e.root) }

func isRecursive(n node) bool {
	switch n := n.(type) {
	case starNode, plusNode:
		return true
	case seqNode:
		for _, p := range n.parts {
			if isRecursive(p) {
				return true
			}
		}
	case altNode:
		for _, a := range n.alts {
			if isRecursive(a) {
				return true
			}
		}
	case optNode:
		return isRecursive(n.sub)
	}
	return false
}

// IsWildcardChain reports whether the expression is a fixed-length
// sequence of wildcards (_, _._, …): such a path matches *every*
// downward path of its length, so a lazy descent mirrors client
// navigations 1:1 without scanning — bounded browsable even under
// NC = {d, r, f}.
func (e *Expr) IsWildcardChain() bool { return isWildcardChain(e.root) }

func isWildcardChain(n node) bool {
	switch n := n.(type) {
	case wildNode:
		return true
	case seqNode:
		for _, p := range n.parts {
			if !isWildcardChain(p) {
				return false
			}
		}
		return true
	}
	return false
}

// MaxDepth returns the length of the longest label sequence the
// expression can match, or -1 if unbounded (recursive). It bounds the
// lazy descent for non-recursive expressions.
func (e *Expr) MaxDepth() int { return maxDepth(e.root) }

func maxDepth(n node) int {
	switch n := n.(type) {
	case atomNode, wildNode:
		return 1
	case seqNode:
		total := 0
		for _, p := range n.parts {
			d := maxDepth(p)
			if d < 0 {
				return -1
			}
			total += d
		}
		return total
	case altNode:
		max := 0
		for _, a := range n.alts {
			d := maxDepth(a)
			if d < 0 {
				return -1
			}
			if d > max {
				max = d
			}
		}
		return max
	case optNode:
		return maxDepth(n.sub)
	case starNode, plusNode:
		return -1
	}
	return 0
}
