package core

import (
	"fmt"

	"mix/internal/algebra"
)

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
