#!/bin/sh
# Benchmark runner: executes the bench_test.go suite with a fixed
# iteration count and several repetitions, then records a
# benchstat-comparable JSON snapshot (BENCH_<n>.json) so the performance
# trajectory is tracked PR over PR.
#
# Usage: scripts/bench.sh [-out FILE] [-old FILE] [-pattern REGEX]
#   -out FILE      snapshot to write (default BENCH_9.json)
#   -old FILE      previous raw bench text to compare against; the JSON
#                  then includes per-benchmark speedups
#   -pattern RE    benchmarks to run (default: all)
# Environment: COUNT (default 5), BENCHTIME (default 1x).
#
# When the previous snapshot (BENCH_8.json) is present, benchjson also
# gates BenchmarkClusterRun against it: a >2% min-ns/op regression on the
# untraced hot path fails the run with exit 3 (the telemetry layer must
# stay a nil check when disabled).
set -eu
cd "$(dirname "$0")/.."

OUT=BENCH_9.json
OLD=
PATTERN=.
while [ $# -gt 0 ]; do
    case "$1" in
    -out) OUT=$2; shift 2 ;;
    -old) OLD=$2; shift 2 ;;
    -pattern) PATTERN=$2; shift 2 ;;
    *) echo "bench.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
COUNT=${COUNT:-5}
BENCHTIME=${BENCHTIME:-1x}

raw=$(mktemp "${TMPDIR:-/tmp}/bench.XXXXXX")
trap 'rm -f "$raw"' EXIT

echo "== go test -bench $PATTERN -benchtime=$BENCHTIME -count=$COUNT"
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" \
    -count "$COUNT" . | tee "$raw"

label=$(git rev-parse --short HEAD 2>/dev/null || echo dev)
PAIR=BenchmarkClusterRun=BenchmarkClusterRunTraced,BenchmarkSeedGridFresh=BenchmarkSeedGridFork,BenchmarkClusterRunPressuredDense=BenchmarkClusterRunPressured

# Regression gate vs the previous snapshot, when it exists. benchjson
# skips the gate with a warning if the benchmark pattern excluded
# BenchmarkClusterRun from this run.
GATEARGS=
if [ -f BENCH_8.json ] && [ "$OUT" != BENCH_8.json ]; then
    GATEARGS="-baseline BENCH_8.json -gate BenchmarkClusterRun=2"
fi

if [ -n "$OLD" ]; then
    # shellcheck disable=SC2086
    go run ./cmd/benchjson -label "$label" -old "$OLD" -pair "$PAIR" $GATEARGS <"$raw" >"$OUT"
else
    # shellcheck disable=SC2086
    go run ./cmd/benchjson -label "$label" -pair "$PAIR" $GATEARGS <"$raw" >"$OUT"
fi
echo "bench: wrote $OUT"
