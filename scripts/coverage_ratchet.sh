#!/usr/bin/env bash
# coverage_ratchet.sh — the tier-1 coverage ratchet.
#
# Runs the tier-1 suite once with coverage of every package under
# internal/ and cmd/, counts per package the statements no test binary
# ran, and compares the counts with scripts/coverage_counts.txt. It
# fails when
#   - any package has more never-run statements than the file allows, or
#   - any statement of internal/algebra/containment.go never ran.
# The profile lists each block once per test binary, so a block's counts
# are summed over binaries before it is judged.
#
#   scripts/coverage_ratchet.sh        check against the count file
#   scripts/coverage_ratchet.sh -w     print the counts in the file's format
#
# A few blocks run or not depending on the scheduler (a lost race, a
# timer), so a count is set to the largest of several runs (see the
# count file's header).
set -euo pipefail
cd "$(dirname "$0")/.."

counts=scripts/coverage_counts.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go test -count=1 -coverpkg=mix/internal/...,mix/cmd/... -coverprofile="$tmp/cover.out" ./... >"$tmp/test.log" ||
    { cat "$tmp/test.log"; exit 1; }

# One line per package: "package never-run total".
awk '$1 != "mode:" { stmts[$1] = $2; count[$1] += $3 }
END {
    for (b in count) {
        pkg = b; sub(/\/[^\/]*:.*$/, "", pkg)
        total[pkg] += stmts[b]
        if (count[b] == 0) missed[pkg] += stmts[b]
    }
    for (p in total) printf "%s %d %d\n", p, missed[p], total[p]
}' "$tmp/cover.out" | sort >"$tmp/now"

if [ "${1:-}" = -w ]; then
    awk '{ printf "%-28s %5d  # of %d\n", $1, $2, $3 }' "$tmp/now"
    exit 0
fi

status=0
awk '$1 ~ /\/internal\/algebra\/containment\.go:/ { stmts[$1] = $2; count[$1] += $3 }
END {
    for (b in count) {
        total += stmts[b]
        if (count[b] == 0) { print "never run: " b; missed += stmts[b] }
    }
    if (total == 0) { print "containment.go: no statements in the profile"; exit 1 }
    printf "containment.go: %d of %d statements run under tier-1\n", total - missed, total
    exit missed > 0
}' "$tmp/cover.out" || status=1

# The count file: "package allowed" per line; # starts a comment.
awk 'FNR == NR { sub(/#.*/, ""); if (NF >= 2) allowed[$1] = $2; next }
{
    pkg = $1; now = $2
    limit = (pkg in allowed) ? allowed[pkg] : 0
    if (now != limit) printf "%s: %d never-run statements, the count file allows %d\n", pkg, now, limit
    if (now > limit) bad = 1
    sum += now; all += $3
}
END { printf "never run under tier-1: %d of %d statements\n", sum, all; exit bad }' "$counts" "$tmp/now" || status=1
exit $status
