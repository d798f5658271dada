package core

import (
	"slices"

	"mix/internal/algebra"
	"mix/internal/regioncache"
)

// View is a prepared plan: validated, checked for a tupleDestroy below
// its root and keyed for the region cache, once. Only Prepare builds
// one. A View is immutable and depends on no registry, so any engine
// may compile it any number of times, concurrently.
type View struct {
	plan    algebra.Op
	name    string   // region-cache name; "" leaves compiled queries uncached
	topVars []string // plan.OutVars()
	sources []string // the source names the plan reads, distinct, in walk order

	// canon and fp are the canonical plan and its fingerprint
	// (regioncache.Canonical) of a named view. A named plan with no
	// canonical form keeps its rendering in opaque instead, from which
	// every Compile mints a fresh fingerprint.
	canon  algebra.Op
	fp     string
	opaque string
}

// Prepare validates plan, rejects a tupleDestroy below its root and
// records what every compile of the plan reads: its top-level
// variables, the sources it names and, under a non-empty region-cache
// name (conventionally the view names the query was composed from), its
// canonical form and fingerprint. Every error a plan can fail with
// except an unregistered source surfaces here.
func Prepare(plan algebra.Op, name string) (*View, error) {
	if err := algebra.Validate(plan); err != nil {
		return nil, err
	}
	// Validate rejects unknown operators, so a nested tupleDestroy is the
	// one valid plan compileNode could not build.
	v := &View{plan: plan, name: name, topVars: plan.OutVars()}
	nested := false
	algebra.Walk(plan, func(op algebra.Op) {
		switch op := op.(type) {
		case *algebra.Source:
			if !slices.Contains(v.sources, op.URL) {
				v.sources = append(v.sources, op.URL)
			}
		case *algebra.TupleDestroy:
			nested = nested || op != plan
		}
	})
	if nested {
		return nil, errNestedTupleDestroy
	}
	if name != "" {
		if canon, fp, ok := regioncache.Canonical(plan); ok {
			v.canon, v.fp = canon, fp
		} else {
			v.opaque = algebra.String(plan)
		}
	}
	return v, nil
}

// Plan returns the prepared plan. It is shared by every compile of the
// view: read-only.
func (v *View) Plan() algebra.Op { return v.plan }
