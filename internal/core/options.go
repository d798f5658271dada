package core

import (
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

// Options control the operator-local caches and the navigation command
// set, mirroring the knobs the paper discusses:
//
//   - JoinCache — the join derives its inner input once (Section 3):
//     into an incrementally-built hash index when the condition implies
//     a variable equality bridging the two inputs (Cond.EquiKeys; each
//     outer binding probes only its bucket, and the index grows only as
//     far as probing forces the inner input), into the nested-loops log
//     every outer binding replays otherwise. Off, the nested loops
//     re-derive the inner input per outer binding: the E6 ablation.
//   - PathCache — getDescendants keeps the explored part of its descent,
//     so re-iterating its output does not re-run the (possibly
//     recursive) descent (Section 3). Something has to re-iterate it for
//     that to show: the operator keeps a log only when JoinCache or
//     GroupCache is off (with both on every operator is read once, by
//     one consumer). Off under such an ancestor is the E7 ablation.
//   - GroupCache — groupBy caches its input and the grouped value lists
//     for the group-by lists in Gprev (Appendix A). Off, every visit of
//     a value list continues the input scan from the previous member,
//     re-deriving the bindings it crosses: the E9 ablation.
//   - NativeSelect — the select(σ) command is part of NC and pushed to
//     the sources, upgrading label selections from browsable to
//     bounded browsable (Section 2, Example 1). E3 toggles it.
//
// With a region cache installed (SetRegionCache), a named query whose
// plan is *subsumed* by another cached plan (same view, weaker
// σ-conditions / wider paths: see algebra.Analyze and DESIGN.md §14) is
// answered by filtering the subsuming plan's fully-explored region
// locally, with zero source navigations.
//
// Whatever the options, equality-heavy operators (distinct, groupBy,
// difference, hash-join buckets) key on structural fingerprints (see
// keyspace.go) and getDescendants steps a lazily-determinized path DFA.
type Options struct {
	JoinCache    bool
	PathCache    bool
	GroupCache   bool
	NativeSelect bool
}

// DefaultOptions enables all caches and leaves NC = {d, r, f}.
func DefaultOptions() Options {
	return Options{JoinCache: true, PathCache: true, GroupCache: true}
}

// New returns an Engine configured by o. A zero Options disables every
// cache — the paper's fully naive evaluator; New(DefaultOptions()) is
// the all-defaults engine.
func New(o Options) *Engine {
	return &Engine{opts: o, reg: map[string]nav.Document{}, intern: xmltree.NewInterner(),
		dfas: map[string]*pathexpr.DFA{}}
}
