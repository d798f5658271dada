package regioncache

import (
	"strconv"

	"mix/internal/algebra"
)

// Canonical puts a plan into RenameVars normal form — every variable
// renamed to v0, v1, … in order of first appearance — and returns the
// canonical plan alongside its fingerprint (the canonical plan's
// operator-tree rendering). View composition generates fresh variable
// prefixes from a per-mediator counter (view1~, view2~, …), so the same
// query compiled on two mediator instances — or twice on one — produces
// textually different plans; canonical renaming maps them to the same
// fingerprint, which is what lets sessions share cache entries and the
// semantic plan index compare plans structurally.
//
// Plans containing operators RenameVars cannot rebuild have no
// canonical form: ok=false, with no plan and no fingerprint. Such a plan
// has no cache identity; core.Prepare rejects it under a cache name.
func Canonical(p algebra.Op) (canon algebra.Op, fp string, ok bool) {
	n := 0
	names := map[string]string{}
	c, err := algebra.RenameVars(p, func(v string) string {
		s, seen := names[v]
		if !seen {
			s = "v" + strconv.Itoa(n)
			n++
			names[v] = s
		}
		return s
	})
	if err != nil {
		return nil, "", false
	}
	return c, algebra.String(c), true
}
