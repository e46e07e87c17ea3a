#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of
# a checkout; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload sample-wire --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the run data (WAL directories, span
# files) all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
PERFBENCH_COMMIT=$commit exec "$out/perfbench" --out "$out/perfbench-data" "$@"
