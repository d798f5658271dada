package core

import (
	"fmt"

	"mix/internal/algebra"
	"mix/internal/trace"
)

// SetTracer installs the navigation-trace recorder Query.Document traces
// into; Query.TracedDocument picks another per document. A pipeline
// built while a recorder is set gets a trace.Doc at every source
// boundary and a traced cursor at every operator boundary, so each
// client navigation unfolds into a causal span tree (operator pulls →
// source navigations). A pipeline built without one is completely
// untouched — tracing off is the zero-cost default. Set it before
// compiling; it is not synchronized with concurrent Compile calls.
func (e *Engine) SetTracer(rec *trace.Recorder) { e.tracer = rec }

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
