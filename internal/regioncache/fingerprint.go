package regioncache

import (
	"strconv"
	"sync/atomic"

	"mix/internal/algebra"
)

// opaqueSeq distinguishes the fingerprints of plans that cannot be
// canonicalized; see OpaqueFingerprint.
var opaqueSeq atomic.Uint64

// opaquePrefix marks a fingerprint from Canonical's fallback path. Such
// fingerprints are process-unique (never shared, never interned, never
// semantically indexed).
const opaquePrefix = "!opaque:"

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
// canonical form: ok=false, with no plan and no fingerprint. Such a
// plan's cache identity comes from OpaqueFingerprint, and ok=false keeps
// it out of the semantic plan index entirely.
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

// OpaqueFingerprint mints a fingerprint for a plan with no canonical
// form from its rendering: the "!opaque:" marker and a process-unique
// sequence number before the rendering, so no two mints ever collide.
func OpaqueFingerprint(rendering string) string {
	return opaquePrefix + strconv.FormatUint(opaqueSeq.Add(1), 10) + ":" + rendering
}
