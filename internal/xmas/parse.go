// Package xmas implements the XML Matching And Structuring language of
// the paper (Fig. 3): declarative queries/view definitions with a
// CONSTRUCT clause describing the answer document and a WHERE clause
// binding variables through generalized path expressions, plus their
// translation into the XMAS algebra (the preprocessing step of
// Section 3).
//
// The supported grammar, in the paper's concrete syntax:
//
//	query    := CONSTRUCT element WHERE cond (AND cond)* (ORDERBY '$'VAR+)?
//	element  := '<' tag '>' item* '</' tag '>' group?
//	item     := element | '$'VAR group? | '"' literal '"'
//	group    := '{' ('$'VAR)? '}'
//	cond     := source path '$'VAR         (bind from a source root)
//	          | '$'VAR path '$'VAR         (bind from a variable)
//	          | '$'VAR op operand          (comparison)
//	          | pattern IN source          (tree pattern, footnote 6)
//	pattern  := ('$'VAR ':')? '<' tag '>' (pattern | '$'VAR)* '</' tag '>'
//	op       := '=' | '!=' | '<' | '<=' | '>' | '>='
//	operand  := '$'VAR | '"' literal '"' | bareword
//
// '%' starts a comment running to end of line. Paths are the
// generalized regular path expressions of package pathexpr; as in the
// paper, a source path is matched from a virtual document node above
// the source root, so "homes.home" addresses home elements inside a
// homes root document.
package xmas

import (
	"fmt"
	"strings"

	"mix/internal/pathexpr"
)

// Query is a parsed XMAS query or view definition.
type Query struct {
	Construct *Element
	Where     []Atom
	// OrderBy lists the variables of a trailing ORDERBY clause; the
	// body bindings are reordered by their values before construction.
	// A query with ORDERBY is unbrowsable (Definition 2).
	OrderBy []string
	// Literals lists the literals the query's shape lifts out (see
	// Shape), in source order: the operands of literal comparisons,
	// quoted or bare, and the text items of the CONSTRUCT clause.
	Literals []Literal

	src string // the comment-stripped source Literals index
}

// Literal is one literal of a parsed query: its value, which is the
// bytes [Pos, End) of the comment-stripped source — inside the quotes
// of a quoted literal.
type Literal struct {
	Value    string
	Pos, End int
}

// Element is a template element of the CONSTRUCT clause.
type Element struct {
	Tag   string
	Items []Item
	// Group is nil for an ungrouped element; a Group with empty Var is
	// the root's "{}" (one element in total).
	Group *Group
}

// Group is a grouping annotation: {} (Var empty) or {$V}.
type Group struct {
	Var string
}

// Item is a template item: *Element, *VarItem or *TextItem.
type Item interface{ item() }

// VarItem is a variable reference in a template, optionally grouped
// ($S {$S} lists one copy per binding of $S).
type VarItem struct {
	Name  string
	Group *Group
}

// TextItem is literal character content.
type TextItem struct {
	Text string
}

func (*Element) item()  {}
func (*VarItem) item()  {}
func (*TextItem) item() {}

// Atom is a WHERE-clause conjunct: *PathAtom or *CondAtom.
type Atom interface{ atom() }

// PathAtom binds Var to the descendants reachable via Path from either
// a source root (Source set) or an already-bound variable (From set).
type PathAtom struct {
	Source string // name of a registered source, or ""
	From   string // variable name, when Source == ""
	Path   *pathexpr.Expr
	Var    string
}

// CondAtom is a comparison between a variable and a variable/literal.
type CondAtom struct {
	Op    string // "=", "!=", "<", "<=", ">", ">="
	Left  string // variable name
	Right string // variable name when RightIsVar, else literal
	// RightIsVar distinguishes $X = $Y from $X = "lit".
	RightIsVar bool
}

// PatternAtom is an XML-QL-style tree pattern over a source (footnote
// 6 of the paper): it is syntactic sugar for a chain of path atoms —
//
//	<homes> $H: <home> <zip>$V1</zip> </home> </homes> IN homesSrc
//
// is the equivalent of
//
//	homesSrc homes.home $H AND $H zip._ $V1
type PatternAtom struct {
	Source  string
	Pattern *PatternNode
}

// PatternNode is one element of a tree pattern.
type PatternNode struct {
	// Bind names the variable bound to this element ("" = anonymous).
	Bind string
	// Tag is the element label to match.
	Tag string
	// Children are nested element patterns.
	Children []*PatternNode
	// Content names the variable bound to this element's content
	// (a one-step wildcard descent), or "".
	Content string
}

func (*PathAtom) atom()    {}
func (*CondAtom) atom()    {}
func (*PatternAtom) atom() {}

// SyntaxError reports a parse failure with its offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmas: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Parse parses a XMAS query.
func Parse(src string) (*Query, error) {
	p := &parser{src: stripComments(src)}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	q.Literals, q.src = p.lits, p.src
	return q, nil
}

// MustParse is Parse for fixtures; it panics on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// stripComments removes %-to-end-of-line comments, preserving offsets
// by blanking rather than deleting.
func stripComments(src string) string {
	if strings.IndexByte(src, '%') < 0 {
		return src
	}
	b := []byte(src)
	in := false
	for i := range b {
		switch {
		case b[i] == '%':
			in = true
		case b[i] == '\n':
			in = false
		}
		if in {
			b[i] = ' '
		}
	}
	return string(b)
}

type parser struct {
	src  string
	pos  int
	lits []Literal
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skip() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (p *parser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) eatKeyword(kw string) bool {
	p.skip()
	end := p.pos + len(kw)
	if end > len(p.src) || !strings.EqualFold(p.src[p.pos:end], kw) {
		return false
	}
	if end < len(p.src) && isWordChar(p.src[end]) {
		return false
	}
	p.pos = end
	return true
}

func isWordChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (p *parser) word() string {
	start := p.pos
	for p.pos < len(p.src) && isWordChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *parser) variable() (string, error) {
	p.skip()
	if p.peek() != '$' {
		return "", p.errf("expected variable")
	}
	p.pos++
	name := p.word()
	if name == "" {
		return "", p.errf("empty variable name after $")
	}
	return name, nil
}

func (p *parser) query() (*Query, error) {
	if !p.eatKeyword("CONSTRUCT") {
		return nil, p.errf("expected CONSTRUCT")
	}
	el, err := p.element()
	if err != nil {
		return nil, err
	}
	if el.Group == nil {
		// The root defaults to the global group "{}" (one answer).
		el.Group = &Group{}
	}
	if !p.eatKeyword("WHERE") {
		return nil, p.errf("expected WHERE")
	}
	q := &Query{Construct: el}
	for {
		a, err := p.atomClause()
		if err != nil {
			return nil, err
		}
		q.Where = append(q.Where, a)
		if !p.eatKeyword("AND") {
			break
		}
	}
	if p.eatKeyword("ORDERBY") {
		for {
			v, err := p.variable()
			if err != nil {
				return nil, err
			}
			q.OrderBy = append(q.OrderBy, v)
			p.skip()
			if p.peek() != '$' {
				break
			}
		}
	}
	p.skip()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input after WHERE clause")
	}
	return q, nil
}

func (p *parser) element() (*Element, error) {
	p.skip()
	if p.peek() != '<' {
		return nil, p.errf("expected '<'")
	}
	p.pos++
	tag := p.word()
	if tag == "" {
		return nil, p.errf("empty element tag")
	}
	p.skip()
	if p.peek() != '>' {
		return nil, p.errf("malformed start tag <%s", tag)
	}
	p.pos++
	el := &Element{Tag: tag}
	for {
		p.skip()
		if strings.HasPrefix(p.src[p.pos:], "</") {
			p.pos += 2
			end := p.word()
			if end != tag {
				return nil, p.errf("mismatched end tag </%s> for <%s>", end, tag)
			}
			p.skip()
			if p.peek() != '>' {
				return nil, p.errf("malformed end tag </%s", end)
			}
			p.pos++
			el.Group = p.group()
			return el, nil
		}
		item, err := p.templateItem()
		if err != nil {
			return nil, err
		}
		el.Items = append(el.Items, item)
	}
}

func (p *parser) templateItem() (Item, error) {
	p.skip()
	switch p.peek() {
	case '<':
		return p.element()
	case '$':
		name, err := p.variable()
		if err != nil {
			return nil, err
		}
		return &VarItem{Name: name, Group: p.group()}, nil
	case '"':
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &TextItem{Text: lit}, nil
	case 0:
		return nil, p.errf("unexpected end of input in template")
	default:
		return nil, p.errf("unexpected %q in template", p.peek())
	}
}

// group parses an optional {…} annotation.
func (p *parser) group() *Group {
	save := p.pos
	p.skip()
	if p.peek() != '{' {
		p.pos = save
		return nil
	}
	p.pos++
	p.skip()
	g := &Group{}
	if p.peek() == '$' {
		name, err := p.variable()
		if err != nil {
			p.pos = save
			return nil
		}
		g.Var = name
		p.skip()
	}
	if p.peek() != '}' {
		p.pos = save
		return nil
	}
	p.pos++
	return g
}

// literal parses a quoted literal and records it in p.lits.
func (p *parser) literal() (string, error) {
	if p.peek() != '"' {
		return "", p.errf("expected '\"'")
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != '"' {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", p.errf("unterminated string literal")
	}
	lit := p.src[start:p.pos]
	p.lits = append(p.lits, Literal{Value: lit, Pos: start, End: p.pos})
	p.pos++
	return lit, nil
}

// atomClause parses one WHERE conjunct.
func (p *parser) atomClause() (Atom, error) {
	p.skip()
	if p.peek() == '<' {
		return p.patternAtom("")
	}
	if p.peek() == '$' {
		left, err := p.variable()
		if err != nil {
			return nil, err
		}
		p.skip()
		if p.peek() == ':' {
			p.pos++
			return p.patternAtom(left)
		}
		if op := p.comparison(); op != "" {
			return p.condRest(left, op)
		}
		// $X path $Y
		path, err := p.pathToken()
		if err != nil {
			return nil, err
		}
		v, err := p.variable()
		if err != nil {
			return nil, err
		}
		return &PathAtom{From: left, Path: path, Var: v}, nil
	}
	// source path $X
	src := p.word()
	if src == "" {
		return nil, p.errf("expected source name or variable")
	}
	path, err := p.pathToken()
	if err != nil {
		return nil, err
	}
	v, err := p.variable()
	if err != nil {
		return nil, err
	}
	return &PathAtom{Source: src, Path: path, Var: v}, nil
}

func (p *parser) comparison() string {
	for _, op := range []string{"!=", "<=", ">=", "=", "<", ">"} {
		if strings.HasPrefix(p.src[p.pos:], op) {
			p.pos += len(op)
			return op
		}
	}
	return ""
}

func (p *parser) condRest(left, op string) (Atom, error) {
	p.skip()
	switch {
	case p.peek() == '$':
		r, err := p.variable()
		if err != nil {
			return nil, err
		}
		return &CondAtom{Op: op, Left: left, Right: r, RightIsVar: true}, nil
	case p.peek() == '"':
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &CondAtom{Op: op, Left: left, Right: lit}, nil
	default:
		start := p.pos
		for p.pos < len(p.src) && !isSpace(p.src[p.pos]) && p.peek() != 0 {
			p.pos++
		}
		lit := p.src[start:p.pos]
		if lit == "" {
			return nil, p.errf("expected comparison operand")
		}
		p.lits = append(p.lits, Literal{Value: lit, Pos: start, End: p.pos})
		return &CondAtom{Op: op, Left: left, Right: lit}, nil
	}
}

// pathToken reads a whitespace-delimited path expression.
func (p *parser) pathToken() (*pathexpr.Expr, error) {
	p.skip()
	start := p.pos
	for p.pos < len(p.src) && !isSpace(p.src[p.pos]) {
		p.pos++
	}
	tok := p.src[start:p.pos]
	if tok == "" {
		return nil, p.errf("expected path expression")
	}
	e, err := pathexpr.Parse(tok)
	if err != nil {
		return nil, &SyntaxError{Offset: start, Msg: err.Error()}
	}
	return e, nil
}

// patternAtom parses a tree-pattern conjunct: pattern IN source. An
// optional outer binding ($X: before the root element) arrives via
// outerBind.
func (p *parser) patternAtom(outerBind string) (Atom, error) {
	pat, err := p.pattern(outerBind)
	if err != nil {
		return nil, err
	}
	if !p.eatKeyword("IN") {
		return nil, p.errf("expected IN after tree pattern")
	}
	p.skip()
	src := p.word()
	if src == "" {
		return nil, p.errf("expected source name after IN")
	}
	return &PatternAtom{Source: src, Pattern: pat}, nil
}

// pattern parses ('$'VAR ':')? '<' tag '>' (pattern | '$'VAR)* '</' tag '>'.
func (p *parser) pattern(bind string) (*PatternNode, error) {
	p.skip()
	if bind == "" && p.peek() == '$' {
		v, err := p.variable()
		if err != nil {
			return nil, err
		}
		p.skip()
		if p.peek() != ':' {
			return nil, p.errf("expected ':' after pattern binding $%s", v)
		}
		p.pos++
		bind = v
		p.skip()
	}
	if p.peek() != '<' {
		return nil, p.errf("expected '<' in tree pattern")
	}
	p.pos++
	tag := p.word()
	if tag == "" {
		return nil, p.errf("empty pattern tag")
	}
	p.skip()
	if p.peek() != '>' {
		return nil, p.errf("malformed pattern tag <%s", tag)
	}
	p.pos++
	node := &PatternNode{Bind: bind, Tag: tag}
	for {
		p.skip()
		if strings.HasPrefix(p.src[p.pos:], "</") {
			p.pos += 2
			end := p.word()
			if end != tag {
				return nil, p.errf("mismatched pattern end tag </%s> for <%s>", end, tag)
			}
			p.skip()
			if p.peek() != '>' {
				return nil, p.errf("malformed pattern end tag </%s", end)
			}
			p.pos++
			return node, nil
		}
		switch p.peek() {
		case '<':
			child, err := p.pattern("")
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, child)
		case '$':
			v, err := p.variable()
			if err != nil {
				return nil, err
			}
			p.skip()
			if p.peek() == ':' {
				p.pos++
				child, err := p.pattern(v)
				if err != nil {
					return nil, err
				}
				node.Children = append(node.Children, child)
				continue
			}
			if node.Content != "" {
				return nil, p.errf("pattern element <%s> binds content twice", tag)
			}
			node.Content = v
		case 0:
			return nil, p.errf("unexpected end of input in tree pattern")
		default:
			return nil, p.errf("unexpected %q in tree pattern", p.peek())
		}
	}
}
