package algebra

// Browsability classification (Definition 2 and Example 1 of the
// paper). The classifier is a static, conservative analysis of the
// plan: each operator contributes the worst-case relationship between
// navigations on its output and navigations required on its inputs,
// and the plan's class is the worst class of any operator in it.
//
//   - Bounded browsable: every client navigation is answered with at
//     most f(n) source navigations, for a function f of the client
//     navigation length only (e.g. pure restructuring: concatenate of
//     source lists, createElement, tupleDestroy).
//   - (Unbounded) browsable: the answer may be computable from a part
//     of the input, but no data-independent bound exists (selection,
//     join, grouping, non-trivial path extraction).
//   - Unbrowsable: some navigation requires reading at least one input
//     list in its entirety regardless of the data (orderBy; the right
//     input of difference; distinct? no — distinct can emit first
//     occurrences lazily, so it is browsable).

// Browsability is the class of a view per Definition 2.
type Browsability int

// Ordered from best to worst, so the plan class is the max.
const (
	BoundedBrowsable Browsability = iota
	Browsable
	Unbrowsable
)

func (b Browsability) String() string {
	switch b {
	case BoundedBrowsable:
		return "bounded browsable"
	case Browsable:
		return "browsable"
	case Unbrowsable:
		return "unbrowsable"
	default:
		return "unknown"
	}
}

// Classify returns the browsability class of the plan and, for
// diagnosis, the first operator (in root-first order) responsible for
// the class (nil when bounded).
//
// The classification assumes the basic command set NC = {d, r, f}.
// When nativeSelect is true the analysis assumes select(σ) is part of
// NC and supported natively by the sources, which upgrades label
// selections and label-predicate path steps from browsable to bounded
// (the Example 1 observation).
func Classify(p Op, nativeSelect bool) (Browsability, Op) {
	worst := BoundedBrowsable
	var culprit Op
	Walk(p, func(op Op) {
		c := classifyOp(op, nativeSelect)
		if c > worst {
			worst = c
			culprit = op
		}
	})
	return worst, culprit
}

func classifyOp(op Op, nativeSelect bool) Browsability {
	switch op := op.(type) {
	case *Source, *TupleDestroy, *Concatenate, *CreateElement, *Project, *Union,
		*WrapList, *Const, *Rename:
		// Pure restructuring: output navigations map to a bounded
		// number of input navigations (qconc of Example 1).
		return BoundedBrowsable

	case *GetDescendants:
		// A fixed-length wildcard chain mirrors client navigations 1:1
		// (every child matches); a fixed label path costs one source
		// command per step when NC includes select(σ); anything
		// recursive must scan.
		if op.Path.IsWildcardChain() {
			return BoundedBrowsable
		}
		if nativeSelect && !op.Path.IsRecursive() && op.Path.MaxDepth() >= 0 {
			return BoundedBrowsable
		}
		return Browsable

	case *Select:
		// Finding the next qualifying binding scans the input
		// (Example 1's q_σ)… unless the condition is a pure label
		// test and the source supports select(σ) natively.
		if nativeSelect {
			if _, ok := op.Cond.(*LabelMatch); ok {
				return BoundedBrowsable
			}
		}
		return Browsable

	case *Join:
		// A product of two single-binding inputs involves no scans;
		// a real join scans for the next qualifying pair.
		if _, isTrue := op.Cond.(True); isTrue && isSingleton(op.Left) && isSingleton(op.Right) {
			return BoundedBrowsable
		}
		return Browsable

	case *GroupBy:
		// Grouping by {} produces one output binding whose grouped
		// list mirrors the input 1:1; real grouping scans for the
		// next group / next member (Appendix A).
		if len(op.By) == 0 {
			return BoundedBrowsable
		}
		return Browsable

	case *Distinct:
		// Producing the next output may scan unboundedly far in the
		// input, but never *requires* the complete list.
		return Browsable

	case *OrderBy:
		// Cannot emit the first binding before the whole input list
		// is read: unbrowsable regardless of the data (Example 1).
		return Unbrowsable

	case *Difference:
		// The entire right input must be read before the first left
		// binding can be safely emitted.
		return Unbrowsable

	default:
		return Unbrowsable
	}
}

// isSingleton reports (conservatively) whether the plan always produces
// exactly one binding.
func isSingleton(p Op) bool {
	switch op := p.(type) {
	case *Source:
		return true
	case *GroupBy:
		return len(op.By) == 0
	case *Join:
		_, isTrue := op.Cond.(True)
		return isTrue && isSingleton(op.Left) && isSingleton(op.Right)
	case *Concatenate, *CreateElement, *WrapList, *Const, *Rename, *Project, *Distinct:
		var buf [2]Op
		return isSingleton(inputs(p, &buf)[0])
	default:
		return false
	}
}
