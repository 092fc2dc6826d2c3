#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it, passing
# every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload envnr-auto --seed 1 --seconds 30 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
