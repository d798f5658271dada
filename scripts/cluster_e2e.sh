#!/usr/bin/env bash
# cluster_e2e.sh — end-to-end check of mixd -cluster on loopback.
#
# Builds mixd and mixq, boots a single-node baseline and a 3-node fleet
# (every node with identical -src/-view sets), and asserts that every
# corpus query answered through *any* fleet member is byte-identical to
# the baseline — once with sessions proxied to their owner node and
# once with every node serving locally and sharing regions only. Then a
# traced proxy fleet must stitch cross-node span forests. Exits non-zero
# on any mismatch.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/mixd" ./cmd/mixd
go build -o "$tmp/mixq" ./cmd/mixq

cat >"$tmp/homeview.xmas" <<'EOF'
CONSTRUCT <allhomes> <med_home> $H $S {$S} </med_home> {$H} </allhomes> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2
EOF

SRCS=(-src homesSrc=demo:homes:40 -src schoolsSrc=demo:schools:40
      -view "homeview=$tmp/homeview.xmas")

queries=(
    'CONSTRUCT <out> $M {$M} </out> {} WHERE homeview allhomes.med_home $M'
    'CONSTRUCT <zips> $Z {$Z} </zips> {} WHERE homesSrc homes.home $H AND $H zip._ $Z'
    'CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
     WHERE homesSrc homes.home $H AND $H zip._ $V1
     AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2'
)

wait_up() { # addr
    for _ in $(seq 1 50); do
        if "$tmp/mixq" -connect "$1" -q 'CONSTRUCT <ping></ping> {} WHERE homesSrc homes.home $H' \
            >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "cluster_e2e: node $1 never came up" >&2
    return 1
}

base=127.0.0.1:17870
"$tmp/mixd" -addr "$base" "${SRCS[@]}" -log-level error &
pids+=($!)
wait_up "$base"
for i in "${!queries[@]}"; do
    "$tmp/mixq" -connect "$base" -q "${queries[$i]}" >"$tmp/want.$i"
done
# The traced fleet explores only the first answer child (see below).
"$tmp/mixq" -connect "$base" -first 1 -q "${queries[0]}" >"$tmp/want.first"

run_fleet() { # mode port1 port2 port3
    local mode=$1 a=127.0.0.1:$2 b=127.0.0.1:$3 c=127.0.0.1:$4
    local fleet_pids=()
    "$tmp/mixd" -addr "$a" -cluster -peers "$b,$c" -cluster-mode "$mode" "${SRCS[@]}" -log-level error &
    fleet_pids+=($!)
    "$tmp/mixd" -addr "$b" -cluster -peers "$a,$c" -cluster-mode "$mode" "${SRCS[@]}" -log-level error &
    fleet_pids+=($!)
    "$tmp/mixd" -addr "$c" -cluster -peers "$a,$b" -cluster-mode "$mode" "${SRCS[@]}" -log-level error &
    fleet_pids+=($!)
    pids+=("${fleet_pids[@]}")
    for n in "$a" "$b" "$c"; do wait_up "$n"; done
    for n in "$a" "$b" "$c"; do
        for i in "${!queries[@]}"; do
            "$tmp/mixq" -connect "$n" -q "${queries[$i]}" >"$tmp/got"
            if ! cmp -s "$tmp/want.$i" "$tmp/got"; then
                echo "cluster_e2e: $mode mode, node $n, query $i differs from baseline" >&2
                diff "$tmp/want.$i" "$tmp/got" >&2 || true
                exit 1
            fi
        done
    done
    for p in "${fleet_pids[@]}"; do kill "$p" 2>/dev/null || true; done
    echo "cluster_e2e: $mode mode byte-identical on all 3 nodes"
}

run_fleet proxy 17871 17872 17873
run_fleet local 17874 17875 17876

# Fleet tracing: boot a traced proxy fleet, navigate through every node
# with a client-side recorder, and require that both sessions entering
# through a non-owner (every command hops to the owner) report a
# stitched forest with spans from >= 2 nodes. The sessions explore only
# the first answer child: a session that materialized the whole view
# would leave its entry complete, and the next non-owner would fill it
# by L2 and serve it locally, with no hop to trace.
run_traced_fleet() { # port1 port2 port3
    local a=127.0.0.1:$1 b=127.0.0.1:$2 c=127.0.0.1:$3
    local fleet_pids=()
    "$tmp/mixd" -addr "$a" -cluster -peers "$b,$c" -trace -slow-ms 0 "${SRCS[@]}" -log-level error &
    fleet_pids+=($!)
    "$tmp/mixd" -addr "$b" -cluster -peers "$a,$c" -trace -slow-ms 0 "${SRCS[@]}" -log-level error &
    fleet_pids+=($!)
    "$tmp/mixd" -addr "$c" -cluster -peers "$a,$b" -trace -slow-ms 0 "${SRCS[@]}" -log-level error &
    fleet_pids+=($!)
    pids+=("${fleet_pids[@]}")
    for n in "$a" "$b" "$c"; do wait_up "$n"; done
    local stitched=0
    for n in "$a" "$b" "$c"; do
        "$tmp/mixq" -connect "$n" -trace -first 1 -q "${queries[0]}" >"$tmp/got" 2>"$tmp/trace"
        if ! cmp -s "$tmp/want.first" "$tmp/got"; then
            echo "cluster_e2e: traced proxy, node $n answer differs from baseline" >&2
            diff "$tmp/want.first" "$tmp/got" >&2 || true
            exit 1
        fi
        if ! grep -q '^nodes:' "$tmp/trace"; then
            echo "cluster_e2e: traced proxy, node $n reported no node-tagged spans" >&2
            cat "$tmp/trace" >&2
            exit 1
        fi
        # "nodes: addr1=n addr2=m" — count the per-node tags.
        tags=$(grep '^nodes:' "$tmp/trace" | head -1 | grep -o '=' | wc -l)
        if [ "$tags" -ge 2 ]; then stitched=$((stitched + 1)); fi
        # The zero-threshold flight ring must already hold these roots.
        # (Capture to a file: grep -q would SIGPIPE mixq mid-dump.)
        "$tmp/mixq" -connect "$n" -slow >"$tmp/slowdump" 2>&1
        if ! grep -q 'node=' "$tmp/slowdump"; then
            echo "cluster_e2e: traced proxy, node $n slow ring is empty" >&2
            exit 1
        fi
    done
    if [ "$stitched" -lt 2 ]; then
        echo "cluster_e2e: expected >= 2 cross-node forests (one per non-owner entry), got $stitched" >&2
        exit 1
    fi
    for p in "${fleet_pids[@]}"; do kill "$p" 2>/dev/null || true; done
    echo "cluster_e2e: traced proxy fleet stitched spans from >= 2 nodes"
}

run_traced_fleet 17877 17878 17879
echo "cluster_e2e: PASS"
