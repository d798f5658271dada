package core

import (
	"fmt"

	"mix/internal/algebra"
	"mix/internal/trace"
)

// SetTracer installs the navigation-trace recorder every query compiled
// *after* the call starts with (see Query.SetTracer). Set it before
// compiling; it is not synchronized with concurrent Compile calls.
func (e *Engine) SetTracer(rec *trace.Recorder) { e.tracer = rec }

// SetTracer routes the query's spans to rec (nil: none), replacing the
// engine's recorder for this query alone, so queries of one engine can
// trace into different recorders. A traced query gets a trace.Doc at
// every source boundary and a traced cursor at every operator boundary,
// so each client navigation unfolds into a causal span tree (operator
// pulls → source navigations). A query without a recorder is completely
// untouched — tracing off is the zero-cost default. Call it before the
// first Document.
func (q *Query) SetTracer(rec *trace.Recorder) { q.tracer = rec }

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
