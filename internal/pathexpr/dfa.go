package pathexpr

import (
	"sync"
	"sync/atomic"
)

// DFA is a lazily-determinized view of an NFA. The NFA's Step recomputes
// an ε-closure per (state set, label) pair — cheap once, but the lazy
// getDescendants descent calls it for every sibling of every explored
// node, and wide documents repeat the same few labels thousands of
// times. The DFA memoizes each subset-construction state the descent
// actually reaches and each transition out of it, so repeated scans
// cost one lookup instead of a closure recomputation.
//
// Transitions are kept by label class, not by label. The alphabet is
// the atom labels the NFA names; every other label crosses only
// wildcard edges, so all of them step alike. A state therefore holds
// len(alphabet)+1 transitions: one per named label and one shared by
// every other label. A path such as price._ steps over every data
// value below price with one transition, however many distinct values
// the sources hold, so an automaton's size depends on its expression
// and on no document.
//
// Determinization is lazy and demand-driven: only states reachable from
// the label sequences actually consumed are ever materialized, so the
// classic exponential subset-construction blowup cannot happen unless
// the input itself drives the automaton through that many distinct
// sets. Each state's Accepting/Alive/Descends bits are precomputed at
// creation and handed out with the state by Step, so a visited sibling
// takes the lock once (the NFA's Alive scans the state set against
// reverse reachability on every call).
//
// A DFA depends only on its expression, never on a document: one
// automaton may serve every descent over that path, and is safe for
// concurrent use.
type DFA struct {
	nfa   *NFA
	class map[string]int // atom label → class; any other label is class len(class)

	mu     sync.Mutex
	states []dfaState
	index  map[string]int // StateSet.Key() → state id
	dead   int            // id of the empty-set state
	start  State          // the start state, fixed at construction
}

type dfaState struct {
	set  StateSet
	bits State
	next []int // by label class: target state id + 1; 0 = not yet computed
}

// State is a DFA state id with its precomputed bits.
type State struct {
	ID int
	// Accepting: the label sequence consumed so far is a complete match.
	Accepting bool
	// Alive: some continuation can still match; false means the descent
	// can prune the subtree below this point.
	Alive bool
	// Descends: some one-label step leads to an Alive state. An
	// accepting state without it is a dead end below: the match's
	// children can never extend it, so the descent does not enter them.
	Descends bool
}

// Package-wide cache counters, exposed on /metrics as mix_dfa_cache_*.
var (
	dfaHits   atomic.Int64
	dfaMisses atomic.Int64
	dfaStates atomic.Int64
)

// DFAStats reports memoized-transition hits, misses (class transitions
// computed from the NFA), and the total number of DFA states
// materialized across all automata since process start.
func DFAStats() (hits, misses, states int64) {
	return dfaHits.Load(), dfaMisses.Load(), dfaStates.Load()
}

// NewDFA wraps nfa in a lazy DFA over the label classes of nfa's
// alphabet.
func NewDFA(nfa *NFA) *DFA {
	d := &DFA{nfa: nfa, class: map[string]int{}, index: make(map[string]int)}
	for _, es := range nfa.edges {
		for _, e := range es {
			if _, ok := d.class[e.label]; e.kind == tAtom && !ok {
				d.class[e.label] = len(d.class)
			}
		}
	}
	// State 0 is the dead state (empty set): stepping from it stays
	// there, and all its bits are false, so pruned descents
	// short-circuit without touching the cache.
	d.dead = d.addLocked(StateSet{})
	d.start = d.states[d.addLocked(nfa.Start())].bits
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
		set: set,
		bits: State{ID: id, Accepting: d.nfa.Accepting(set),
			Alive: d.nfa.Alive(set), Descends: d.nfa.Descends(set)},
		next: make([]int, len(d.class)+1),
	})
	d.index[key] = id
	dfaStates.Add(1)
	return id
}

// Start returns the start state.
func (d *DFA) Start() State { return d.start }

// Step consumes one label from state from and returns the resulting
// state with its bits.
func (d *DFA) Step(from int, label string) State {
	if from == d.dead {
		return State{ID: d.dead}
	}
	c, ok := d.class[label]
	if !ok {
		c = len(d.class)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if to := d.states[from].next[c]; to > 0 {
		dfaHits.Add(1)
		return d.states[to-1].bits
	}
	// Any label of the class computes the class's step: a label outside
	// the alphabet matches no atom edge.
	to := d.addLocked(d.nfa.Step(d.states[from].set, label))
	d.states[from].next[c] = to + 1
	dfaMisses.Add(1)
	return d.states[to].bits
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
		if s = d.Step(s.ID, l); !s.Alive {
			return false
		}
	}
	return s.Accepting
}
