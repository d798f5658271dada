#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the Go toolchain writes (build cache, module cache, the
# binary) stays in .bench_build/ at the root of the checkout, so a run
# reads and writes nothing outside it.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$bench" -o "$build/bench" .
exec "$build/bench" "$@"
