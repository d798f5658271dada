package pathexpr

import "sort"

// This file compiles path expressions to Thompson NFAs and provides the
// stepwise matcher the lazy getDescendants mediator drives during
// descent.

// transition kinds
const (
	tEps  = iota // ε-transition
	tWild        // consumes any label
	tAtom        // consumes a specific label
)

type edge struct {
	kind  int
	label string // for tAtom
	to    int
}

// NFA is a compiled path expression: states 0..n-1, a start state and a
// single accept state, with ε/label transitions.
type NFA struct {
	edges  [][]edge
	start  int
	accept int

	reach []bool // memoized reverse reachability from accept
}

// Compile builds the NFA for e.
func Compile(e *Expr) *NFA {
	b := &nfaBuilder{}
	start, accept := b.build(e.root)
	return &NFA{edges: b.edges, start: start, accept: accept}
}

type nfaBuilder struct {
	edges [][]edge
}

func (b *nfaBuilder) newState() int {
	b.edges = append(b.edges, nil)
	return len(b.edges) - 1
}

func (b *nfaBuilder) addEdge(from int, e edge) {
	b.edges[from] = append(b.edges[from], e)
}

// build returns (start, accept) for the fragment.
func (b *nfaBuilder) build(n node) (int, int) {
	switch n := n.(type) {
	case atomNode:
		s, a := b.newState(), b.newState()
		b.addEdge(s, edge{kind: tAtom, label: n.label, to: a})
		return s, a
	case wildNode:
		s, a := b.newState(), b.newState()
		b.addEdge(s, edge{kind: tWild, to: a})
		return s, a
	case seqNode:
		s, a := b.build(n.parts[0])
		for _, p := range n.parts[1:] {
			ps, pa := b.build(p)
			b.addEdge(a, edge{kind: tEps, to: ps})
			a = pa
		}
		return s, a
	case altNode:
		s, a := b.newState(), b.newState()
		for _, alt := range n.alts {
			as, aa := b.build(alt)
			b.addEdge(s, edge{kind: tEps, to: as})
			b.addEdge(aa, edge{kind: tEps, to: a})
		}
		return s, a
	case starNode:
		s, a := b.newState(), b.newState()
		is, ia := b.build(n.sub)
		b.addEdge(s, edge{kind: tEps, to: is})
		b.addEdge(s, edge{kind: tEps, to: a})
		b.addEdge(ia, edge{kind: tEps, to: is})
		b.addEdge(ia, edge{kind: tEps, to: a})
		return s, a
	case plusNode:
		is, ia := b.build(n.sub)
		a := b.newState()
		b.addEdge(ia, edge{kind: tEps, to: is})
		b.addEdge(ia, edge{kind: tEps, to: a})
		return is, a
	case optNode:
		s, a := b.newState(), b.newState()
		is, ia := b.build(n.sub)
		b.addEdge(s, edge{kind: tEps, to: is})
		b.addEdge(s, edge{kind: tEps, to: a})
		b.addEdge(ia, edge{kind: tEps, to: a})
		return s, a
	}
	// empty expression: accept the empty sequence
	s := b.newState()
	return s, s
}

// StateSet is an ε-closed set of NFA states, represented as a sorted
// slice so it can serve as a cache key via Key().
type StateSet []int

// Start returns the ε-closure of the start state.
func (m *NFA) Start() StateSet {
	return m.closure([]int{m.start})
}

// Step consumes one edge label and returns the resulting state set
// (possibly empty).
func (m *NFA) Step(s StateSet, label string) StateSet {
	var next []int
	seen := map[int]bool{}
	for _, st := range s {
		for _, e := range m.edges[st] {
			if e.kind == tWild || (e.kind == tAtom && e.label == label) {
				if !seen[e.to] {
					seen[e.to] = true
					next = append(next, e.to)
				}
			}
		}
	}
	return m.closure(next)
}

// Accepting reports whether the label sequence consumed so far is a
// complete match.
func (m *NFA) Accepting(s StateSet) bool {
	for _, st := range s {
		if st == m.accept {
			return true
		}
	}
	return false
}

// Alive reports whether any continuation of the sequence consumed so
// far can still match (i.e. the state set is nonempty and some state
// can reach the accept state). An Alive=false state set means the lazy
// descent can prune this subtree.
func (m *NFA) Alive(s StateSet) bool {
	if len(s) == 0 {
		return false
	}
	reach := m.canReachAccept()
	for _, st := range s {
		if reach[st] {
			return true
		}
	}
	return false
}

// Descends reports whether some one-label step from s leads to an
// Alive state set. A label edge's target is in the ε-closure of the
// step, and reverse reachability is closed under ε-predecessors, so the
// step is alive exactly when some label edge out of s targets a state
// that can reach accept.
func (m *NFA) Descends(s StateSet) bool {
	reach := m.canReachAccept()
	for _, st := range s {
		for _, e := range m.edges[st] {
			if e.kind != tEps && reach[e.to] {
				return true
			}
		}
	}
	return false
}

func (m *NFA) canReachAccept() []bool {
	if m.reach != nil {
		return m.reach
	}
	// reverse reachability from accept
	rev := make([][]int, len(m.edges))
	for from, es := range m.edges {
		for _, e := range es {
			rev[e.to] = append(rev[e.to], from)
		}
	}
	reach := make([]bool, len(m.edges))
	stack := []int{m.accept}
	reach[m.accept] = true
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[st] {
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	m.reach = reach
	return reach
}

func (m *NFA) closure(states []int) StateSet {
	seen := map[int]bool{}
	var stack []int
	for _, s := range states {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range m.edges[st] {
			if e.kind == tEps && !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	out := make(StateSet, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Key returns a canonical key for the state set, for memoization.
func (s StateSet) Key() string {
	b := make([]byte, 0, len(s)*3)
	for _, st := range s {
		for st >= 128 {
			b = append(b, byte(st&0x7f)|0x80)
			st >>= 7
		}
		b = append(b, byte(st))
		b = append(b, 0xff)
	}
	return string(b)
}

// reach memoizes canReachAccept.
// (declared here, at the end, to keep the NFA struct definition compact)

// Matches reports whether the whole label sequence matches e; it is
// the reference semantics used by property tests.
func (m *NFA) Matches(labels []string) bool {
	s := m.Start()
	for _, l := range labels {
		s = m.Step(s, l)
		if len(s) == 0 {
			return false
		}
	}
	return m.Accepting(s)
}
