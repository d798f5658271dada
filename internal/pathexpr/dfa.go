package pathexpr

import (
	"sync"
	"sync/atomic"

	"mix/internal/xmltree"
)

// DFA is a lazily-determinized view of an NFA. The NFA's Step recomputes
// an ε-closure per (state set, label) pair — cheap once, but the lazy
// getDescendants descent calls it for every sibling of every explored
// node, and wide documents repeat the same few labels thousands of
// times. The DFA memoizes each subset-construction state the descent
// actually reaches and each labeled transition out of it, so repeated
// scans cost one map hit instead of a closure recomputation.
//
// Determinization is lazy and demand-driven: only states reachable from
// the label sequences actually consumed are ever materialized, so the
// classic exponential subset-construction blowup cannot happen unless
// the input itself drives the automaton through that many distinct
// sets. Each state's Accepting/Alive bits are precomputed at creation,
// making those checks O(1) as well (the NFA's Alive scans the state
// set against reverse reachability on every call).
//
// A DFA is safe for concurrent use.
type DFA struct {
	nfa *NFA
	in  *xmltree.Interner // optional: canonicalizes transition-map keys

	mu     sync.Mutex
	states []dfaState
	index  map[string]int // StateSet.Key() → state id
	dead   int            // id of the empty-set state
	start  int            // id of the start state, fixed at construction
}

type dfaState struct {
	set       StateSet
	accepting bool
	alive     bool
	next      map[string]int // label → state id
}

// Package-wide cache counters, exposed on /metrics as mix_dfa_cache_*.
var (
	dfaHits   atomic.Int64
	dfaMisses atomic.Int64
	dfaStates atomic.Int64
)

// DFAStats reports memoized-transition hits, misses (transitions
// computed from the NFA), and the total number of DFA states
// materialized across all automata since process start.
func DFAStats() (hits, misses, states int64) {
	return dfaHits.Load(), dfaMisses.Load(), dfaStates.Load()
}

// NewDFA wraps nfa in a lazy DFA. The interner, when non-nil, is used
// to canonicalize the label strings keying transition maps (sharing
// storage with labels interned elsewhere, e.g. by the wire decoder);
// nil disables interning.
func NewDFA(nfa *NFA, in *xmltree.Interner) *DFA {
	d := &DFA{nfa: nfa, in: in, index: make(map[string]int)}
	// State 0 is the dead state (empty set): stepping from it stays
	// there, and Alive reports false, so pruned descents short-circuit
	// without touching the cache.
	d.dead = d.addLocked(StateSet{})
	d.start = d.addLocked(nfa.Start())
	return d
}

// addLocked materializes a state for set, or returns the existing one.
// Caller holds d.mu (or is the constructor).
func (d *DFA) addLocked(set StateSet) int {
	key := set.Key()
	if id, ok := d.index[key]; ok {
		return id
	}
	id := len(d.states)
	d.states = append(d.states, dfaState{
		set:       set,
		accepting: d.nfa.Accepting(set),
		alive:     d.nfa.Alive(set),
		next:      make(map[string]int),
	})
	d.index[key] = id
	dfaStates.Add(1)
	return id
}

// Start returns the id of the start state.
func (d *DFA) Start() int { return d.start }

// Step consumes one label and returns the id of the resulting state.
func (d *DFA) Step(state int, label string) int {
	if state == d.dead {
		return d.dead
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &d.states[state]
	if to, ok := s.next[label]; ok {
		dfaHits.Add(1)
		return to
	}
	to := d.addLocked(d.nfa.Step(s.set, label))
	// addLocked may grow d.states; re-index rather than reuse s.
	d.states[state].next[d.in.Intern(label)] = to
	dfaMisses.Add(1)
	return to
}

// Accepting reports whether the label sequence consumed so far is a
// complete match.
func (d *DFA) Accepting(state int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.states[state].accepting
}

// Alive reports whether any continuation can still match; false means
// the descent can prune the subtree below this point.
func (d *DFA) Alive(state int) bool {
	if state == d.dead {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.states[state].alive
}

// Size returns the number of materialized DFA states (including the
// dead state).
func (d *DFA) Size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.states)
}

// Matches reports whether the whole label sequence matches, with the
// same semantics as NFA.Matches; used by equivalence tests.
func (d *DFA) Matches(labels []string) bool {
	s := d.Start()
	for _, l := range labels {
		s = d.Step(s, l)
		if s == d.dead {
			return false
		}
	}
	return d.Accepting(s)
}
