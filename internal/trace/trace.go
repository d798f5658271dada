// Package trace records *navigation traces*: causal span trees showing
// how one client navigation command (d, r, f, select) on a virtual
// mediated view fans out through the tree of lazy mediators into
// child-operator pulls and, at the leaves, source navigations — the
// per-operator attribution of the paper's navigational-complexity
// measure (Def. 2), with per-span wall-clock latency attached.
//
// A Recorder is handed to one answer document (core.Query.TracedDocument,
// or mediator.Result.TracedDocument) before its pipeline is built; the
// compiler then wraps every operator boundary and every source document
// so that each pull and each answered navigation command opens a span. Because lazy evaluation is
// pull-driven and synchronous, span nesting is maintained with a simple
// stack: the span open when a child span begins is its causal parent.
// Operator caches are visible as *absent* spans — a memoized replay
// answers without re-entering the traced boundary.
//
// Tracing is strictly opt-in: a nil *Recorder records nothing, and a
// document obtained without one compiles exactly the plan it would
// compile otherwise (no wrappers, no allocations on the hot path).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mix/internal/nav"
)

// SourcePrefix prefixes the span label of every source-boundary
// navigation, distinguishing source navigations from operator pulls in
// a trace (the two sides of the paper's complexity ratio).
const SourcePrefix = "src:"

// ClientLabel is the conventional label for spans opened by client
// navigation commands — the roots of a trace forest.
const ClientLabel = "client"

// ProxyLabel is the conventional label for the span a cluster node
// opens around a command it forwards to the owner node: the hop itself
// is attributed, and the owner's forest is stitched under it.
const ProxyLabel = "proxy"

// ClusterLabel is the conventional label for spans a node opens while
// serving a peer-facing cluster op (region_get, region_put,
// invalidate) under a remote trace context.
const ClusterLabel = "cluster"

// PeerLabel is the conventional label for spans a node's peer control
// link opens around the L2 region traffic it initiates (region fetches,
// flush puts, invalidation fans) — the calling side of ClusterLabel.
const PeerLabel = "peer"

// Span is one traced operation: a client command, an operator pull, or
// a source navigation. Start is the offset from the recorder's epoch
// (the first span after the last Take), so a rendered forest reads as a
// timeline. Node, ID, and Parent exist only on fleet-traced spans:
// Node names the recording node, ID is the span's fleet-wide identity,
// and Parent is the span (possibly on another node) it was opened
// under. All three are zero for purely local traces, so single-process
// tracing pays no extra wire bytes.
type Span struct {
	Label    string        `json:"label"`
	Op       string        `json:"op"`
	Start    time.Duration `json:"start_ns"`
	Dur      time.Duration `json:"dur_ns"`
	Node     string        `json:"node,omitempty"`
	ID       uint64        `json:"id,omitempty"`
	Parent   uint64        `json:"parent,omitempty"`
	Children []*Span       `json:"children,omitempty"`
}

// Recorder collects span forests. It is safe for concurrent use, but
// the causal stack assumes one navigation is evaluated at a time (true
// for a session's pull-driven engine).
type Recorder struct {
	// Sink, when non-nil, observes every completed span (label, op,
	// latency) — the hook that feeds per-operator latency histograms.
	// Set it before recording begins.
	Sink func(label, op string, d time.Duration)
	// Limit caps the number of retained root spans (0 = unlimited);
	// when exceeded, the oldest roots are dropped. Long-running
	// sessions set a limit so an untaken trace cannot grow without
	// bound.
	Limit int
	// Node, when non-empty, is stamped on every root span, so forests
	// stitched across a fleet keep per-node attribution. Set it before
	// recording begins.
	Node string
	// RootSink, when non-nil, observes every completed *root* span —
	// one whole client navigation with its full fan-out — outside the
	// recorder lock. It is the hook behind the slow-navigation flight
	// recorder. Set it before recording begins.
	RootSink func(*Span)

	mu    sync.Mutex
	epoch time.Time
	roots []*Span
	stack []*Span
	// traceID is the fleet identity adopted from (or minted for) the
	// first BeginContext/SetRemoteParent; remote is the pending remote
	// parent applied to new roots while remoteOn.
	traceID  TraceID
	remote   Context
	remoteOn bool
}

// stackRetainCap bounds the causal-stack capacity kept across roots: a
// deep forest may grow the stack arbitrarily, and without a release the
// backing array would be retained for the recorder's whole lifetime
// (sessions keep one recorder per engine). When a pop empties the stack
// past this capacity the array is dropped for the GC.
const stackRetainCap = 64

// New returns an empty Recorder.
func New() *Recorder { return &Recorder{} }

// Begin opens a span as a child of the innermost open span (or as a new
// root). It returns nil — and records nothing — on a nil Recorder.
func (r *Recorder) Begin(label, op string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.epoch.IsZero() {
		r.epoch = time.Now()
	}
	sp := &Span{Label: label, Op: op, Start: time.Since(r.epoch)}
	if len(r.stack) == 0 {
		sp.Node = r.Node
		if r.remoteOn {
			// A root opened under a remote parent joins the caller's
			// trace: it gets a fleet identity and points back at the
			// span on the asking node.
			sp.ID = newSpanID()
			sp.Parent = r.remote.SpanID
		}
		r.roots = append(r.roots, sp)
		if r.Limit > 0 && len(r.roots) > r.Limit {
			drop := len(r.roots) - r.Limit
			r.roots = append(r.roots[:0], r.roots[drop:]...)
		}
	} else {
		parent := r.stack[len(r.stack)-1]
		parent.Children = append(parent.Children, sp)
	}
	r.stack = append(r.stack, sp)
	return sp
}

// End closes a span opened by Begin. End(nil) is a no-op, so callers
// may unconditionally defer it.
func (r *Recorder) End(sp *Span) {
	if r == nil || sp == nil {
		return
	}
	r.mu.Lock()
	sp.Dur = time.Since(r.epoch) - sp.Start
	var isRoot bool
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == sp {
			if i == 0 {
				// The outermost open span closed: one whole navigation
				// completed. Release an overgrown stack array instead
				// of keeping a deep forest's capacity alive forever.
				isRoot = true
				if cap(r.stack) > stackRetainCap {
					r.stack = nil
				} else {
					r.stack = r.stack[:0]
				}
			} else {
				r.stack = r.stack[:i]
			}
			break
		}
	}
	sink, rootSink := r.Sink, r.RootSink
	r.mu.Unlock()
	if sink != nil {
		sink(sp.Label, sp.Op, sp.Dur)
	}
	if isRoot && rootSink != nil {
		rootSink(sp)
	}
}

// Take returns the recorded forest and resets the recorder, so
// consecutive Takes partition the span stream by navigation.
func (r *Recorder) Take() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	roots := r.roots
	r.roots = nil
	if cap(r.stack) > stackRetainCap {
		r.stack = nil
	} else {
		r.stack = r.stack[:0]
	}
	r.epoch = time.Time{}
	return roots
}

// --- fleet context ---------------------------------------------------------

// BeginContext opens a span like Begin and returns the fleet Context
// naming it, minting the recorder's trace id (and the span's id) on
// first use. The context is what a caller injects into an outgoing
// request so the receiving node parents its roots under this span. On a
// nil Recorder it records nothing and returns a zero Context.
func (r *Recorder) BeginContext(label, op string) (*Span, Context) {
	if r == nil {
		return nil, Context{}
	}
	sp := r.Begin(label, op)
	r.mu.Lock()
	if r.traceID.IsZero() {
		r.traceID = NewTraceID()
	}
	if sp.ID == 0 {
		sp.ID = newSpanID()
	}
	ctx := Context{TraceID: r.traceID, SpanID: sp.ID}
	r.mu.Unlock()
	return sp, ctx
}

// SetRemoteParent arms the recorder so the *next* roots it opens join
// the remote caller's trace: they adopt ctx's trace id and point their
// Parent at ctx's span. Pair with ClearRemoteParent around the serving
// of one traced request. No-op on a nil Recorder.
func (r *Recorder) SetRemoteParent(ctx Context) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.remote = ctx
	r.remoteOn = true
	r.traceID = ctx.TraceID
	r.mu.Unlock()
}

// ClearRemoteParent disarms SetRemoteParent.
func (r *Recorder) ClearRemoteParent() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.remote = Context{}
	r.remoteOn = false
	r.mu.Unlock()
}

// Stitch grafts a peer's returned span forest under the local span that
// proxied the work, preserving the epoch-relative timeline: the remote
// recorder's epoch started when it began serving, so the whole remote
// forest is shifted by the clock-skew offset that aligns its earliest
// root with the local span's start. Remote roots without a parent link
// inherit the local span's id.
func Stitch(local *Span, remote []*Span) {
	if local == nil || len(remote) == 0 {
		return
	}
	minStart := remote[0].Start
	for _, sp := range remote[1:] {
		if sp.Start < minStart {
			minStart = sp.Start
		}
	}
	offset := local.Start - minStart
	for _, sp := range remote {
		shiftSpan(sp, offset)
		if sp.Parent == 0 && local.ID != 0 {
			sp.Parent = local.ID
		}
		local.Children = append(local.Children, sp)
	}
}

func shiftSpan(sp *Span, d time.Duration) {
	sp.Start += d
	for _, c := range sp.Children {
		shiftSpan(c, d)
	}
}

// --- analysis -------------------------------------------------------------

// SourceTotals counts the source-boundary navigation spans in a forest
// by command op ("d", "r", "f", "select", "root"). The totals are, by
// construction, the per-op source navigation counts of the traced
// window — the quantity metrics.Counters measures at the same boundary.
func SourceTotals(roots []*Span) map[string]int64 {
	totals := map[string]int64{}
	var walk func(sp *Span)
	walk = func(sp *Span) {
		if strings.HasPrefix(sp.Label, SourcePrefix) {
			totals[sp.Op]++
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range roots {
		walk(sp)
	}
	return totals
}

// SourceNavigations sums SourceTotals across ops.
func SourceNavigations(roots []*Span) int64 {
	var n int64
	for _, c := range SourceTotals(roots) {
		n += c
	}
	return n
}

// NodeTotals counts the spans of a (possibly stitched) forest per
// recording node. Spans without a Node tag inherit the nearest tagged
// ancestor's; spans with no tagged ancestor at all count under "".
func NodeTotals(roots []*Span) map[string]int64 {
	totals := map[string]int64{}
	var walk func(sp *Span, node string)
	walk = func(sp *Span, node string) {
		if sp.Node != "" {
			node = sp.Node
		}
		totals[node]++
		for _, c := range sp.Children {
			walk(c, node)
		}
	}
	for _, sp := range roots {
		walk(sp, "")
	}
	return totals
}

// Summary aggregates a forest per (label, op): span count and total
// latency, sorted by label then op. It is the compact alternative to
// Format for large traces.
type Summary struct {
	Label string
	Op    string
	Count int64
	Total time.Duration
}

// Summarize folds a forest into per-(label, op) rows.
func Summarize(roots []*Span) []Summary {
	type key struct{ label, op string }
	agg := map[key]*Summary{}
	var walk func(sp *Span)
	walk = func(sp *Span) {
		k := key{sp.Label, sp.Op}
		s := agg[k]
		if s == nil {
			s = &Summary{Label: sp.Label, Op: sp.Op}
			agg[k] = s
		}
		s.Count++
		s.Total += sp.Dur
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range roots {
		walk(sp)
	}
	out := make([]Summary, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// Format renders a forest as an indented text tree, one line per span:
//
//	client d 1.2ms
//	  join next 1.1ms
//	    src:homesSrc d 80µs
func Format(roots []*Span) string {
	var b strings.Builder
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		fmt.Fprintf(&b, "%s%s %s %s", strings.Repeat("  ", depth), sp.Label, sp.Op, sp.Dur.Round(time.Microsecond))
		if sp.Node != "" {
			fmt.Fprintf(&b, " node=%s", sp.Node)
		}
		b.WriteByte('\n')
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	for _, sp := range roots {
		walk(sp, 0)
	}
	return b.String()
}

// --- instrumented document ------------------------------------------------

// Doc wraps a nav.Document so every navigation command it answers opens
// a span in Rec. At a source boundary (Label prefixed with
// SourcePrefix) the spans are exactly the source navigations of the
// complexity definition; wrapping a virtual answer document with
// Label = ClientLabel makes each client command a trace root.
type Doc struct {
	Inner nav.Document
	Label string
	Rec   *Recorder
}

// NewDoc wraps doc with tracing under the given span label.
func NewDoc(doc nav.Document, label string, rec *Recorder) *Doc {
	return &Doc{Inner: doc, Label: label, Rec: rec}
}

// Root implements nav.Document.
func (d *Doc) Root() (nav.ID, error) {
	sp := d.Rec.Begin(d.Label, string(nav.OpRoot))
	defer d.Rec.End(sp)
	return d.Inner.Root()
}

// Down implements nav.Document.
func (d *Doc) Down(p nav.ID) (nav.ID, error) {
	sp := d.Rec.Begin(d.Label, string(nav.OpDown))
	defer d.Rec.End(sp)
	return d.Inner.Down(p)
}

// Right implements nav.Document.
func (d *Doc) Right(p nav.ID) (nav.ID, error) {
	sp := d.Rec.Begin(d.Label, string(nav.OpRight))
	defer d.Rec.End(sp)
	return d.Inner.Right(p)
}

// Fetch implements nav.Document.
func (d *Doc) Fetch(p nav.ID) (string, error) {
	sp := d.Rec.Begin(d.Label, string(nav.OpFetch))
	defer d.Rec.End(sp)
	return d.Inner.Fetch(p)
}

// Unwrap exposes the wrapped document to capability probes
// (nav.SelectorOf); tracing does not change the navigation command set.
func (d *Doc) Unwrap() nav.Document { return d.Inner }

// SelectRight implements nav.Selector. A natively answered select is
// one span; over a document without native select it is nav.Select's
// r/f scan *through the traced document*, so the trace bills exactly
// the commands the source answers — keeping trace totals equal to
// counter totals at the same boundary.
func (d *Doc) SelectRight(p nav.ID, sigma nav.Predicate, fromSelf bool) (nav.ID, error) {
	s, ok := nav.SelectorOf(d.Inner)
	if !ok {
		return nav.Select(d, p, sigma, fromSelf)
	}
	sp := d.Rec.Begin(d.Label, string(nav.OpSelect))
	defer d.Rec.End(sp)
	return s.SelectRight(p, sigma, fromSelf)
}
