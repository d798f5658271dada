package core

import (
	"errors"
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
	// (regioncache.Canonical) of a named view.
	canon algebra.Op
	fp    string
}

// errNoCanonicalForm rejects a named plan regioncache.Canonical cannot
// canonicalize: it would have no region-cache key.
var errNoCanonicalForm = errors.New("core: named plan has no canonical form")

// Prepare validates plan, rejects a tupleDestroy below its root and
// records what every compile of the plan reads: its top-level
// variables, the sources it names and, under a non-empty region-cache
// name (conventionally the view names the query was composed from), its
// canonical form and fingerprint. A named plan with no canonical form
// has no cache identity and is rejected; after Validate only a
// condition type from outside internal/algebra can cause that. Every
// error a plan can fail with except an unregistered source surfaces
// here.
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
		canon, fp, ok := regioncache.Canonical(plan)
		if !ok {
			return nil, errNoCanonicalForm
		}
		v.canon, v.fp = canon, fp
	}
	return v, nil
}

// Plan returns the prepared plan. It is shared by every compile of the
// view: read-only.
func (v *View) Plan() algebra.Op { return v.plan }

// Bind returns the view of the same plan with its literals bound
// through lits (algebra.BindLiterals): the plan and the canonical plan
// are copied with the literals substituted, and the fingerprint is
// rendered again. Literals decide no
// validation, source, top-level variable or cache name, so those are
// shared with v, which is not modified. lits should map only
// placeholders no plan holds by accident, such as the sentinels of
// xmas.Query.Template.
func (v *View) Bind(lits map[string]string) *View {
	w := *v
	w.plan = algebra.BindLiterals(v.plan, lits)
	if v.canon != nil {
		w.canon = algebra.BindLiterals(v.canon, lits)
		w.fp = algebra.String(w.canon)
	}
	return &w
}

// Name returns the region-cache name the view was prepared under.
func (v *View) Name() string { return v.name }

// Fingerprint returns the canonical plan's fingerprint: "" for an
// unnamed view.
func (v *View) Fingerprint() string { return v.fp }

// Sources returns the names of the sources the plan reads, distinct, in
// walk order: read-only.
func (v *View) Sources() []string { return v.sources }

// TopVars returns the plan's top-level variables: read-only.
func (v *View) TopVars() []string { return v.topVars }
