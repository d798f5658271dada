package core

import (
	"mix/internal/algebra"
	"mix/internal/xmltree"
)

// compileGroupBy implements the lazy groupBy mediator of Appendix A
// (Fig. 10). Navigating right among the output groups scans the input
// for the next binding whose group-by list has not been seen (the
// paper's nextgb over Gprev); navigating right among a group's values
// scans the input for the next binding with the same group-by list (the
// paper's next(pb, pg)).
//
// With GroupCache the input flows once into a shared replayLog; the
// group scan and every group's member list are positions into that
// log, so the grouped value lists stay lazy and memoized and the input
// is derived once. Without it nothing is kept: the group scan reads the
// input cursor directly and a value list re-derives its members from a
// fork of that cursor on every visit (scanList).
func (c *compiler) compileGroupBy(op *algebra.GroupBy) (builder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	by, out, cache := op.By, &linkOp{to: op.Out}, c.e.opts.GroupCache
	spec, proj := &groupSpec{by: by, varName: op.Var}, &linkOp{keep: by}
	return func() (cursor, error) {
		if len(by) == 0 {
			// Grouping by {} yields exactly one output binding — even for
			// empty input ("create one answer element for each {}") — and
			// it is produced without touching the input: the grouped list
			// is lazy. This is what lets the mediator answer f on the
			// answer root with zero source accesses.
			var values list
			if cache {
				values = memoize(logValueList{in: &lazyLog{in: in}, varName: spec.varName})
			} else {
				values = scanList{group: group{groupSpec: spec}, in: in}
			}
			b := newBinding().with(out, NewElem(xmltree.ListLabel, values))
			return &sliceCursor{buf: []*binding{b}}, nil
		}
		g := &groupsCursor{spec: spec, proj: proj, out: out, seen: newKeySet(by)}
		if cache {
			g.in = &lazyLog{in: in}
			return g, nil
		}
		src, err := in()
		if err != nil {
			return nil, err
		}
		g.src = src
		return g, nil
	}, nil
}

// logValueList renders the varName values of a logged input as a lazy
// node list, deriving the input only when first stepped.
type logValueList struct {
	in      *lazyLog
	varName string
	pos     int
}

func (v logValueList) next() (Node, list, error) {
	log, err := v.in.get()
	if err != nil {
		return nil, nil, err
	}
	b, err := log.at(v.pos)
	if err != nil {
		return nil, nil, err
	}
	if b == nil {
		return nil, nil, nil
	}
	n, err := b.node(v.varName)
	if err != nil {
		return nil, nil, err
	}
	return n, logValueList{in: v.in, varName: v.varName, pos: v.pos + 1}, nil
}

// groupsCursor emits one output binding per distinct group-by list, in
// order of first occurrence; seen holds each group's head. With
// GroupCache it scans the shared input log (in); without, it pulls the
// input cursor (src), so that a fork of src taken at a group head
// continues the scan exactly after it.
type groupsCursor struct {
	in   *lazyLog
	pos  int
	src  cursor
	spec *groupSpec
	proj *linkOp // projects a group head onto by
	out  *linkOp // binds the grouped list
	seen *keySet
}

func (g *groupsCursor) next() (*binding, error) {
	var log *replayLog
	if g.src == nil {
		var err error
		if log, err = g.in.get(); err != nil {
			return nil, err
		}
	}
	for {
		var b *binding
		var err error
		if log != nil {
			b, err = log.at(g.pos)
		} else {
			b, err = g.src.next()
		}
		if b == nil {
			return nil, err
		}
		added, k, err := g.seen.add(b)
		if err != nil {
			return nil, err
		}
		head := g.pos
		g.pos++
		if !added {
			continue
		}
		// New group: its member list starts at the group head and
		// continues through the rest of the input with the same values.
		// The output binding keeps the group-by variables (sharing the
		// head's links and memoized values) plus the lazy grouped list.
		grp := group{groupSpec: g.spec, head: b, key: k}
		var values list
		if log != nil {
			values = memoize(memberList{group: grp, log: log, pos: head})
		} else {
			values = scanList{group: grp, pending: b, from: g.src.fork()}
		}
		return b.project(g.proj).with(g.out, NewElem(xmltree.ListLabel, values)), nil
	}
}

func (g *groupsCursor) fork() cursor {
	f := *g
	f.seen = g.seen.clone()
	if g.src != nil {
		f.src = g.src.fork()
	}
	return &f
}

// groupSpec is a groupBy's constant: the group-by variables, and the
// variable whose values a group lists.
type groupSpec struct {
	by      []string
	varName string
}

// group identifies one group's members, for its value list: the
// bindings whose values of by are the head's. A member's key equals the
// head's, and its values are Equal to the head's.
type group struct {
	*groupSpec
	head *binding
	key  xmltree.Fingerprint
}

func (g *group) member(b *binding) (bool, error) {
	k, err := b.key(g.by)
	if err != nil || k != g.key {
		return false, err
	}
	return sameValues(b, g.head, g.by)
}

// memberList is one group's lazy value list: the varName values of the
// log positions from the group head onward that are members.
type memberList struct {
	group
	log *replayLog
	pos int
}

func (m memberList) next() (Node, list, error) {
	for {
		b, err := m.log.at(m.pos)
		if b == nil {
			return nil, nil, err
		}
		m.pos++
		ok, err := m.member(b)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		n, err := b.node(m.varName)
		if err != nil {
			return nil, nil, err
		}
		return n, m, nil
	}
}

// scanList is a group's value list with GroupCache off. Nothing is
// kept between visits: each step pulls a fork of from — the input
// cursor as it stood after the previous member, never advanced itself —
// until the next member, re-deriving every binding it crosses. Forking
// is what keeps the list persistent: any saved handle continues from
// its own snapshot.
type scanList struct {
	group
	pending *binding // the group head: emitted first, from is already past it
	from    cursor   // input snapshot after the previous member; nil only for
	in      builder  // the head of a by = {} list, which derives the input from in
}

func (m scanList) next() (Node, list, error) {
	b, cur := m.pending, m.from
	if b == nil {
		if cur != nil {
			cur = cur.fork()
		} else {
			var err error
			if cur, err = m.in(); err != nil {
				return nil, nil, err
			}
		}
		for b == nil {
			nb, err := cur.next()
			if err != nil || nb == nil {
				return nil, nil, err
			}
			if len(m.by) > 0 {
				ok, err := m.member(nb)
				if err != nil {
					return nil, nil, err
				}
				if !ok {
					continue
				}
			}
			b = nb
		}
	}
	n, err := b.node(m.varName)
	if err != nil {
		return nil, nil, err
	}
	m.pending, m.from = nil, cur
	return n, m, nil
}
