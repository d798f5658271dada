#!/usr/bin/env bash
# containment_coverage.sh — the containment checker's coverage gate.
#
# Runs the tier-1 suite with coverage of internal/algebra and fails if
# any statement of internal/algebra/containment.go never ran. The
# profile lists each block once per test package, so a block's counts
# are summed over packages before it is judged.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go test -coverpkg=mix/internal/algebra -coverprofile="$tmp/cover.out" ./... >"$tmp/test.log" ||
    { cat "$tmp/test.log"; exit 1; }
awk '$1 ~ /\/internal\/algebra\/containment\.go:/ { stmts[$1] = $2; count[$1] += $3 }
END {
    for (b in count) {
        total += stmts[b]
        if (count[b] == 0) { print "never run: " b; missed += stmts[b] }
    }
    if (total == 0) { print "containment.go: no statements in the profile"; exit 1 }
    printf "containment.go: %d of %d statements run under tier-1\n", total - missed, total
    exit missed > 0
}' "$tmp/cover.out"
