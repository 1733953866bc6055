#!/usr/bin/env bash
# Builds the benchmark and the mtmrd server from the checkout it is run in,
# then runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload fig5 --seed 2010 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binaries, temporary stores, result files) stays under
# .bench_build/ in the checkout, and the build never touches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

go build -o "$build/bin/mtmrd" ./cmd/mtmrd
(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -mtmrd "$build/bin/mtmrd" -out "$build/results" "$@"
