package xmas

import "strconv"

// Shape returns the query's shape: its comment-stripped source with
// every literal lifted out. Two queries of one shape parse to the same
// query but for the values of their literals, since a literal's bytes
// never decide where the parser goes next; so they translate to the
// same plan but for those values. The shape encodes each stretch of
// source between literals with its length, so no text can be mistaken
// for another's shape.
func (q *Query) Shape() string {
	b := make([]byte, 0, len(q.src)+4*len(q.Literals)+4)
	at := 0
	for _, l := range q.Literals {
		b = appendStretch(b, q.src[at:l.Pos])
		at = l.End
	}
	return string(appendStretch(b, q.src[at:]))
}

func appendStretch(b []byte, s string) []byte {
	return append(append(strconv.AppendInt(b, int64(len(s)), 10), ':'), s...)
}

// sentinel returns the i-th placeholder literal of Template. It holds a
// '"' and a space, and no literal of any parsed query holds both: a
// quoted literal ends at its first '"' and a bare one at its first
// space. So a sentinel can stand for a literal in a plan built from
// XMAS texts without ever being mistaken for one of their literals.
func sentinel(i int) string { return `"literal ` + strconv.Itoa(i) + `"` }

// Template returns a copy of q whose i-th literal is sentinel(i), and
// those sentinels in order; q is not modified. The copy stands for
// every query of q's shape: binding the sentinels of the plan it
// translates to yields the plan of the query with those literals. The
// copy has no source of its own, so it lists no Literals.
func (q *Query) Template() (*Query, []string) {
	sentinels := make([]string, len(q.Literals))
	for i := range sentinels {
		sentinels[i] = sentinel(i)
	}
	next := 0
	lit := func() string {
		next++
		return sentinels[next-1]
	}
	t := &Query{Construct: q.Construct.template(lit), OrderBy: q.OrderBy,
		Where: make([]Atom, len(q.Where))}
	for i, a := range q.Where {
		if c, ok := a.(*CondAtom); ok && !c.RightIsVar {
			cc := *c
			cc.Right = lit()
			a = &cc
		}
		t.Where[i] = a
	}
	if next != len(sentinels) {
		panic("xmas: template literals out of step with the parser's")
	}
	return t, sentinels
}

// template copies the element with each text item's literal replaced
// by the next lit(), in source order.
func (el *Element) template(lit func() string) *Element {
	if el == nil {
		return nil
	}
	out := &Element{Tag: el.Tag, Group: el.Group, Items: make([]Item, len(el.Items))}
	for i, it := range el.Items {
		switch it := it.(type) {
		case *Element:
			out.Items[i] = it.template(lit)
		case *TextItem:
			out.Items[i] = &TextItem{Text: lit()}
		default:
			out.Items[i] = it
		}
	}
	return out
}
