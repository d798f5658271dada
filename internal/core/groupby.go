package core

import (
	"maps"
	"strings"

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
	by, varName, out := op.By, op.Var, op.Out
	ks, cache := c.ks, c.e.opts.GroupCache
	ck, proj := strings.Join(by, "\x01"), &linkOp{keep: by}
	return func() (cursor, error) {
		if len(by) == 0 {
			// Grouping by {} yields exactly one output binding — even for
			// empty input ("create one answer element for each {}") — and
			// it is produced without touching the input: the grouped list
			// is lazy. This is what lets the mediator answer f on the
			// answer root with zero source accesses.
			var values list
			if cache {
				values = memoize(logValueList{in: &lazyLog{in: in}, varName: varName})
			} else {
				values = scanList{in: in, varName: varName}
			}
			b := newBinding().with(out, NewElem(xmltree.ListLabel, values))
			return &sliceCursor{buf: []*binding{b}}, nil
		}
		g := &groupsCursor{ks: ks, by: by, ck: ck, proj: proj,
			varName: varName, out: out, seen: map[string]bool{}}
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
// order of first occurrence, keying with the joined variable list
// precomputed. With GroupCache it scans the shared input log (in);
// without, it pulls the input cursor (src), so that a fork of src taken
// at a group head continues the scan exactly after it.
type groupsCursor struct {
	in      *lazyLog
	pos     int
	src     cursor
	ks      *keyspace
	by      []string
	ck      string
	proj    *linkOp // projects a group head onto by
	varName string
	out     string
	seen    map[string]bool
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
		k, err := b.key(g.ck, g.ks, g.by)
		if err != nil {
			return nil, err
		}
		head := g.pos
		g.pos++
		if g.seen[k] {
			continue
		}
		g.seen[k] = true
		// New group: its member list starts at the group head and
		// continues through the rest of the input with the same key. The
		// output binding keeps the group-by variables (sharing the
		// head's links and memoized values) plus the lazy grouped list.
		var values list
		if log != nil {
			values = memoize(memberList{log: log, pos: head, ks: g.ks,
				by: g.by, key: k, ck: g.ck, varName: g.varName})
		} else {
			values = scanList{head: b, from: g.src.fork(), ks: g.ks,
				by: g.by, key: k, ck: g.ck, varName: g.varName}
		}
		return b.project(g.proj).with(g.out, NewElem(xmltree.ListLabel, values)), nil
	}
}

func (g *groupsCursor) fork() cursor {
	f := *g
	f.seen = maps.Clone(g.seen)
	if g.src != nil {
		f.src = g.src.fork()
	}
	return &f
}

// memberList is one group's lazy value list: the varName values of the
// log positions from the group head onward whose group-by key matches.
type memberList struct {
	log     *replayLog
	pos     int
	ks      *keyspace
	by      []string
	key     string
	ck      string
	varName string
}

func (m memberList) next() (Node, list, error) {
	pos := m.pos
	for {
		b, err := m.log.at(pos)
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			return nil, nil, nil
		}
		k, err := b.key(m.ck, m.ks, m.by)
		if err != nil {
			return nil, nil, err
		}
		pos++
		if k != m.key {
			continue
		}
		n, err := b.node(m.varName)
		if err != nil {
			return nil, nil, err
		}
		return n, memberList{log: m.log, pos: pos, ks: m.ks, by: m.by,
			key: m.key, ck: m.ck, varName: m.varName}, nil
	}
}

// scanList is a group's value list with GroupCache off. Nothing is
// kept between visits: each step pulls a fork of from — the input
// cursor as it stood after the previous member, never advanced itself —
// until the next binding with the group's key, re-deriving every
// binding it crosses. Forking is what keeps the list persistent: any
// saved handle continues from its own snapshot.
type scanList struct {
	head    *binding // the group head: emitted first, from is already past it
	from    cursor   // input snapshot after the previous member; nil only for
	in      builder  // the head of a by = {} list, which derives the input from in
	ks      *keyspace
	by      []string
	key     string
	ck      string
	varName string
}

func (m scanList) next() (Node, list, error) {
	b, cur := m.head, m.from
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
				k, err := nb.key(m.ck, m.ks, m.by)
				if err != nil {
					return nil, nil, err
				}
				if k != m.key {
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
	m.head, m.from = nil, cur
	return n, m, nil
}
