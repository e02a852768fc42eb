#!/bin/sh
# Full verification: vet, build, and the complete test suite under the
# race detector. The race run also exercises the runner worker pool's
# parallel-vs-sequential determinism tests (internal/experiments) and the
# runner stress test (internal/runner). The fault-injection and lease
# packages get a second -count=2 pass (catches cross-run state leakage in
# the seeded fault streams), the steady-state zero-allocation guard runs
# without the race detector, the benchmark module's tests (bench/) check
# its result goldens, a vrsim run with every fault dimension
# enabled smoke-tests self-healing end to end, and a level-1 chaos grid
# (membership churn + domain faults, invariant auditor on) must complete
# with zero violations.
#
# With --bench, a single-iteration pass over the core benchmarks runs at
# the end — a smoke check that the hot paths still execute and report,
# making perf regressions visible without the full scripts/bench.sh
# snapshot.
set -eu
cd "$(dirname "$0")/.."

BENCH=0
for arg in "$@"; do
    case "$arg" in
    --bench) BENCH=1 ;;
    *) echo "verify.sh: unknown argument $arg" >&2; exit 2 ;;
    esac
done

echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
# The race detector is ~5-10x slower than a plain run and the root
# equivalence suite alone needs ~15 min of it on a single CPU, so the
# per-binary timeout is raised well past go test's 10m default.
echo "== go test -race ./..."
go test -race -timeout 45m ./...
echo "== go test -race -count=2 ./internal/faults/... ./internal/core/..."
go test -race -timeout 45m -count=2 ./internal/faults/... ./internal/core/...
# The race build leaves the zero-allocation guard out (its instrumentation
# allocates), so the guard runs once more without it.
echo "== go test -run TestSteadyStateAllocs ."
go test -count=1 -run '^TestSteadyStateAllocs$' .
# bench/ is its own module, so go test ./... above does not reach it. Its
# goldens pin the result digests of all four benchmark workloads at seeds
# 42 and 7.
echo "== (cd bench && go test ./...)"
(cd bench && go test -count=1 ./...)
echo "== fault-sweep smoke run (cmd/vrsim)"
go run ./cmd/vrsim -group 2 -level 1 -policy vr -faults \
    -mtbf 20m -crash requeue -droprate 0.1 -abortrate 0.2 -lease 30s \
    >/dev/null
echo "== chaos-grid smoke run (cmd/vrbench, invariant auditor on)"
go run ./cmd/vrbench -exp chaos -levels 1 >/dev/null
if [ "$BENCH" = 1 ]; then
    echo "== bench smoke (single iteration)"
    go test -run '^$' -benchtime=1x \
        -bench 'BenchmarkClusterRun$|BenchmarkClusterRunTraced|BenchmarkClusterRunBaseline|BenchmarkEngineScheduleRun|BenchmarkEngineScheduleCancel|BenchmarkNodeTick' \
        -benchmem .
fi
echo "verify: OK"
