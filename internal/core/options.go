package core

import (
	"mix/internal/nav"
	"mix/internal/xmltree"
)

// Options control the operator-local caches, the navigation command
// set, and the execution style, mirroring the knobs the paper
// discusses:
//
//   - JoinCache — the nested-loops join stores the inner binding list
//     so it is not re-derived from the source for every outer binding
//     (Section 3). Off, the join re-derives the inner input per outer
//     binding: the E6 ablation.
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
//   - HashJoin — joins whose condition implies a variable equality
//     (Cond.EquiKeys) probe an incrementally-built hash index over the
//     inner input instead of scanning it per outer binding; the index
//     grows only as far as probing forces the inner input, so laziness
//     is preserved. Requires JoinCache (the index memoizes the inner
//     derivation); non-equi conditions fall back to nested loops.
//   - Parallel — joins whose two inputs read disjoint source sets
//     derive both inputs concurrently (bounded worker pool, first error
//     cancels the sibling). The inputs are drained eagerly when the
//     join is first pulled, trading input laziness for wall-clock
//     overlap of the sources' round trips; see parallel.go. Requires
//     JoinCache (the drained inputs are replayed like the inner cache).
//   - Fingerprints — equality-heavy operators (distinct, groupBy,
//     difference, hash-join buckets) key on memoized 128-bit structural
//     fingerprints instead of canonical subtree strings, and
//     getDescendants steps a lazily-determinized DFA instead of
//     recomputing NFA closures per label. Semantics are byte-identical:
//     fingerprint collisions fall back to full structural comparison
//     (see keyspace.go), and the DFA is observationally equivalent to
//     the NFA. Off reproduces the pre-fingerprint behavior exactly.
//   - BatchSize — the width of the operator pipeline: operators
//     exchange slices of up to BatchSize bindings per call (see
//     batch.go); 1 (or less) moves one binding per pull. The lazy
//     navigation contract lives at the answer-document boundary, which
//     pulls single bindings on client demand, so answers, client
//     commands, and per-source navigation counts do not depend on the
//     width; whole-batch execution kicks in on full drains
//     (Materialize, orderBy and difference inputs, parallel derivation).
//   - SemanticCache — with a region cache installed, a named query whose
//     plan is *subsumed* by another cached plan (same view, weaker
//     σ-conditions / wider paths: see algebra.Analyze and DESIGN.md §14)
//     is answered by filtering the subsuming plan's fully-explored
//     region locally, with zero source navigations. Off restricts the
//     region cache to exact fingerprint matches (the E18 ablation).
type Options struct {
	JoinCache     bool
	PathCache     bool
	GroupCache    bool
	NativeSelect  bool
	HashJoin      bool
	Parallel      bool
	Fingerprints  bool
	SemanticCache bool
	BatchSize     int
}

// DefaultBatchSize is the batch width DefaultOptions enables: large
// enough to amortize per-call interpretation on warm drains, small
// enough that a pooled batch stays within a few cache lines of binding
// pointers.
const DefaultBatchSize = 64

// DefaultOptions enables all caches, the hash equi-join, the
// fingerprint fast paths, and batch-at-a-time execution, and leaves
// NC = {d, r, f}. Parallel input derivation is opt-in: it trades the
// lazy "explore only what the client demands" contract for latency
// overlap, which only pays off on high-latency sources.
func DefaultOptions() Options {
	return Options{JoinCache: true, PathCache: true, GroupCache: true,
		HashJoin: true, Fingerprints: true, SemanticCache: true, BatchSize: DefaultBatchSize}
}

// width is the pipeline width BatchSize selects.
func (o Options) width() int { return max(o.BatchSize, 1) }

// Option configures an Engine under construction (see New).
type Option func(*Options)

// WithOptions replaces the whole option set, for callers that computed
// an Options value (ablation sweeps, config structs). A zero Options
// disables every cache and fast path — the paper's fully naive
// evaluator — exactly like the pre-options literal did.
func WithOptions(o Options) Option { return func(dst *Options) { *dst = o } }

// WithJoinCache toggles the nested-loops inner cache (E6 ablation).
func WithJoinCache(on bool) Option { return func(o *Options) { o.JoinCache = on } }

// WithPathCache toggles getDescendants memoization (E7 ablation).
func WithPathCache(on bool) Option { return func(o *Options) { o.PathCache = on } }

// WithGroupCache toggles groupBy's Gprev value-list caches (E9 ablation).
func WithGroupCache(on bool) Option { return func(o *Options) { o.GroupCache = on } }

// WithNativeSelect toggles pushing select(σ) to the sources (E3).
func WithNativeSelect(on bool) Option { return func(o *Options) { o.NativeSelect = on } }

// WithHashJoin toggles the hash equi-join fast path.
func WithHashJoin(on bool) Option { return func(o *Options) { o.HashJoin = on } }

// WithParallel toggles concurrent derivation of disjoint join inputs.
func WithParallel(on bool) Option { return func(o *Options) { o.Parallel = on } }

// WithFingerprints toggles fingerprint keys and the lazy path DFA.
func WithFingerprints(on bool) Option { return func(o *Options) { o.Fingerprints = on } }

// WithSemanticCache toggles answering navigations from subsuming cached
// regions via plan containment (the E18 ablation).
func WithSemanticCache(on bool) Option { return func(o *Options) { o.SemanticCache = on } }

// WithBatchSize sets the width of the operator pipeline (n <= 1 moves
// one binding per pull).
func WithBatchSize(n int) Option { return func(o *Options) { o.BatchSize = n } }

// New returns an Engine configured by the given options, applied over
// DefaultOptions. New() is the all-defaults engine; New(WithOptions(o))
// adopts a computed Options value wholesale.
func New(opts ...Option) *Engine {
	o := DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return &Engine{opts: o, reg: map[string]nav.Document{}, intern: xmltree.NewInterner()}
}
