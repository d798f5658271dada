package core

import (
	"fmt"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/trace"
)

// SetTracer installs a navigation-trace recorder on the engine. Plans
// compiled *after* the call get a trace.Doc at every source boundary
// and a traced cursor at every operator boundary, so each client
// navigation unfolds into a causal span tree (operator pulls → source
// navigations) in the recorder. Plans compiled without a tracer are
// completely untouched — tracing off is the zero-cost default.
//
// Set the tracer before compiling; it is not synchronized with
// concurrent Compile calls.
//
// The wrappers write to the recorder of whichever document holds the
// query's navigation lock: the engine's for the demand document, none
// for a speculative drain's — so drains put no span into a session's
// trace, the operator histograms or the slow-navigation ring.
func (e *Engine) SetTracer(rec *trace.Recorder) { e.tracer = rec }

// tracedSource is a source boundary's trace.Doc whose recorder is read
// per command from the query (see SetTracer).
type tracedSource struct {
	inner nav.Document
	label string
	q     *Query
}

func (s *tracedSource) doc() *trace.Doc { return trace.NewDoc(s.inner, s.label, s.q.rec) }

func (s *tracedSource) Root() (nav.ID, error)          { return s.doc().Root() }
func (s *tracedSource) Down(p nav.ID) (nav.ID, error)  { return s.doc().Down(p) }
func (s *tracedSource) Right(p nav.ID) (nav.ID, error) { return s.doc().Right(p) }
func (s *tracedSource) Fetch(p nav.ID) (string, error) { return s.doc().Fetch(p) }
func (s *tracedSource) Unwrap() nav.Document           { return s.inner }
func (s *tracedSource) SelectRight(p nav.ID, sigma nav.Predicate, fromSelf bool) (nav.ID, error) {
	return s.doc().SelectRight(p, sigma, fromSelf)
}

// opLabel names an operator for trace spans and latency histograms.
func opLabel(p algebra.Op) string {
	switch op := p.(type) {
	case *algebra.Source:
		return "source(" + op.URL + ")"
	case *algebra.GetDescendants:
		return "getDescendants(" + op.Path.String() + ")"
	case *algebra.Select:
		return "select"
	case *algebra.Join:
		return "join"
	case *algebra.GroupBy:
		return "groupBy"
	case *algebra.Concatenate:
		return "concatenate"
	case *algebra.CreateElement:
		return "createElement"
	case *algebra.OrderBy:
		return "orderBy"
	case *algebra.Project:
		return "project"
	case *algebra.Union:
		return "union"
	case *algebra.Difference:
		return "difference"
	case *algebra.Distinct:
		return "distinct"
	case *algebra.WrapList:
		return "wrapList"
	case *algebra.Const:
		return "const"
	case *algebra.Rename:
		return "rename"
	case *algebra.TupleDestroy:
		return "tupleDestroy"
	default:
		return fmt.Sprintf("%T", p)
	}
}
