#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload paper --seed 42 --seconds 25 --trace 0
#
# The binary, the Go build cache and Go's other state files go under
# .bench_build/ in the working directory, so nothing is written elsewhere.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/tmp" \
    GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
