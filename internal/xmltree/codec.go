package xmltree

import (
	"fmt"
	"strings"
	"unicode"
)

// This file implements parsing and serialization between Trees and a
// compact XML surface syntax. The serializer emits well-formed XML
// (entity-escaped); the parser accepts the serializer's output plus
// ordinary hand-written XML without attributes, processing
// instructions, or doctypes. Comments are skipped. Attributes, if
// present in the input, are rejected with a descriptive error because
// the paper's data model excludes them (see package comment).

// MarshalXML renders t as a single-line XML string. A leaf is rendered
// as character content when it appears under an element; a whole-tree
// leaf renders as <label/> if the label is a valid name, otherwise as
// escaped text.
func MarshalXML(t *Tree) string {
	var b strings.Builder
	writeXML(&b, t, -1)
	return b.String()
}

// MarshalIndent renders t as indented multi-line XML using two-space
// indentation, for human inspection.
func MarshalIndent(t *Tree) string {
	var b strings.Builder
	writeXML(&b, t, 0)
	return b.String()
}

func writeXML(b *strings.Builder, t *Tree, indent int) {
	if t == nil {
		return
	}
	pad := ""
	if indent >= 0 {
		pad = strings.Repeat("  ", indent)
	}
	if t.IsLeaf() {
		b.WriteString(pad)
		b.WriteString(escapeText(t.Label))
		if indent >= 0 {
			b.WriteByte('\n')
		}
		return
	}
	// Element with only leaf children that are text content: render inline.
	b.WriteString(pad)
	b.WriteByte('<')
	b.WriteString(t.Label)
	b.WriteByte('>')
	inline := indent < 0 || allLeaves(t)
	if !inline {
		b.WriteByte('\n')
		for _, c := range t.Children {
			writeXML(b, c, indent+1)
		}
		b.WriteString(pad)
	} else {
		for _, c := range t.Children {
			writeXML(b, c, -1)
		}
	}
	b.WriteString("</")
	b.WriteString(t.Label)
	b.WriteByte('>')
	if indent >= 0 {
		b.WriteByte('\n')
	}
}

func allLeaves(t *Tree) bool {
	for _, c := range t.Children {
		if !c.IsLeaf() {
			return false
		}
	}
	return true
}

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

func escapeText(s string) string { return textEscaper.Replace(s) }

// XMLSize returns len(MarshalXML(t)) without building the string, for
// byte accounting on paths that only need the size.
func XMLSize(t *Tree) int {
	if t == nil {
		return 0
	}
	if t.IsLeaf() {
		n := len(t.Label)
		for i := 0; i < len(t.Label); i++ {
			switch t.Label[i] {
			case '&':
				n += len("&amp;") - 1
			case '<', '>':
				n += len("&lt;") - 1
			}
		}
		return n
	}
	n := 2*len(t.Label) + len("<></>")
	for _, c := range t.Children {
		n += XMLSize(c)
	}
	return n
}

// ParseError describes a syntax error in an XML input.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xmltree: parse error at offset %d: %s", e.Offset, e.Msg)
}

// UnmarshalXML parses a single XML element (optionally surrounded by
// whitespace) into a Tree. Character content is split off into leaf
// children; pure-whitespace content between elements is dropped.
func UnmarshalXML(s string) (*Tree, error) {
	p := &parser{src: s}
	p.skipSpaceAndComments()
	t, err := p.element()
	if err != nil {
		return nil, err
	}
	p.skipSpaceAndComments()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing data after document element")
	}
	return t, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpaceAndComments() {
	for {
		for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
			p.pos++
		}
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += 4 + end + 3
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "<?") {
			end := strings.Index(p.src[p.pos+2:], "?>")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += 2 + end + 2
			continue
		}
		return
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || unicode.IsLetter(rune(c))
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) name() (string, error) {
	start := p.pos
	if p.pos >= len(p.src) || !isNameStart(p.src[p.pos]) {
		return "", p.errf("expected element name")
	}
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

// element parses <name>content</name> or <name/>.
func (p *parser) element() (*Tree, error) {
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return nil, p.errf("expected '<'")
	}
	p.pos++
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	p.skipInTagSpace()
	if p.pos < len(p.src) && p.src[p.pos] != '>' && p.src[p.pos] != '/' {
		return nil, p.errf("attributes are not supported by the tree model (element %q)", name)
	}
	if strings.HasPrefix(p.src[p.pos:], "/>") {
		p.pos += 2
		return Elem(name), nil
	}
	if p.pos >= len(p.src) || p.src[p.pos] != '>' {
		return nil, p.errf("malformed start tag %q", name)
	}
	p.pos++
	t := Elem(name)
	for {
		if p.pos >= len(p.src) {
			return nil, p.errf("unexpected end of input inside element %q", name)
		}
		if strings.HasPrefix(p.src[p.pos:], "</") {
			p.pos += 2
			end, err := p.name()
			if err != nil {
				return nil, err
			}
			if end != name {
				return nil, p.errf("mismatched end tag </%s> for <%s>", end, name)
			}
			p.skipInTagSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != '>' {
				return nil, p.errf("malformed end tag %q", end)
			}
			p.pos++
			return t, nil
		}
		if strings.HasPrefix(p.src[p.pos:], "<!--") || strings.HasPrefix(p.src[p.pos:], "<?") {
			p.skipSpaceAndComments()
			continue
		}
		if p.src[p.pos] == '<' {
			child, err := p.element()
			if err != nil {
				return nil, err
			}
			t.Children = append(t.Children, child)
			continue
		}
		text, err := p.text()
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(text) != "" {
			t.Children = append(t.Children, Leaf(text))
		}
	}
}

func (p *parser) skipInTagSpace() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func (p *parser) text() (string, error) {
	var b strings.Builder
	for p.pos < len(p.src) && p.src[p.pos] != '<' {
		if p.src[p.pos] == '&' {
			r, n, err := p.entity()
			if err != nil {
				return "", err
			}
			b.WriteString(r)
			p.pos += n
			continue
		}
		b.WriteByte(p.src[p.pos])
		p.pos++
	}
	// Collapse surrounding whitespace of mixed content conservatively:
	// keep interior text as written but trim pure layout whitespace.
	s := b.String()
	if strings.TrimSpace(s) == "" {
		return s, nil
	}
	return strings.TrimSpace(s), nil
}

func (p *parser) entity() (string, int, error) {
	rest := p.src[p.pos:]
	for ent, r := range map[string]string{
		"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": "\"", "&apos;": "'",
	} {
		if strings.HasPrefix(rest, ent) {
			return r, len(ent), nil
		}
	}
	return "", 0, p.errf("unsupported entity")
}

// ParseBracket parses the paper's bracket notation produced by
// Tree.String, e.g. "bs[b[H[home[addr[La Jolla],zip[91220]]]]]".
// Labels may contain any characters except '[', ']' and ','.
func ParseBracket(s string) (*Tree, error) {
	p := &bracketParser{src: s}
	t, err := p.tree()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.src) {
		return nil, &ParseError{Offset: p.pos, Msg: "trailing data"}
	}
	return t, nil
}

type bracketParser struct {
	src string
	pos int
}

func (p *bracketParser) skip() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func (p *bracketParser) tree() (*Tree, error) {
	p.skip()
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune("[],", rune(p.src[p.pos])) {
		p.pos++
	}
	label := strings.TrimSpace(p.src[start:p.pos])
	if label == "" {
		return nil, &ParseError{Offset: start, Msg: "empty label"}
	}
	t := &Tree{Label: label}
	if p.pos < len(p.src) && p.src[p.pos] == '[' {
		p.pos++
		p.skip()
		if p.pos < len(p.src) && p.src[p.pos] == ']' {
			p.pos++
			return t, nil
		}
		for {
			c, err := p.tree()
			if err != nil {
				return nil, err
			}
			t.Children = append(t.Children, c)
			p.skip()
			if p.pos >= len(p.src) {
				return nil, &ParseError{Offset: p.pos, Msg: "unterminated '['"}
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ']' {
				p.pos++
				return t, nil
			}
			return nil, &ParseError{Offset: p.pos, Msg: "expected ',' or ']'"}
		}
	}
	return t, nil
}
