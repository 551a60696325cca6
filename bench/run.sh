#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark binary from
# source inside the checkout (Go build cache included, so nothing is
# written outside it) and runs it with the caller's arguments.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
# Recorded in every result's header; a checkout that is not a git
# repository reads "unknown".
export NOWBENCH_COMMIT="${NOWBENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
(cd bench && go build -o "$build/nowbench" .)
exec "$build/nowbench" "$@"
