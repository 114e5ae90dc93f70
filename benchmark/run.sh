#!/usr/bin/env bash
# Builds the benchmark and empserve from this checkout and runs the benchmark
# with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload paper50k1 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, server
# state, result and trace files) stays under .bench_build/ at the checkout
# root. No network access is needed: the module has no dependencies.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

cd "$root/benchmark"
go build -o "$build/bin/benchmark" .
go build -o "$build/bin/empserve" emp/cmd/empserve

cd "$root"
exec "$build/bin/benchmark" -empserve "$build/bin/empserve" \
	-workdir "$build/run" -out "$build/results" "$@"
