#!/bin/sh
# Full verification: vet, build, and the complete test suite under the
# race detector. The race run also exercises the runner worker pool's
# parallel-vs-sequential determinism tests (internal/experiments) and the
# runner stress test (internal/runner). The fault-injection and lease
# packages get a second -count=2 pass (catches cross-run state leakage in
# the seeded fault streams), the steady-state zero-allocation guard runs
# without the race detector, the quantum fold is fuzzed against the
# reference tick for 20 s and its resume across status mutations for 10 s,
# the phase cursor against MemoryDemandAtMB for 10 s, the fault injector's
# drop runs against one draw per period, its streams against math/rand and
# its plan validation for 10 s each, the record and JSONL readers for 10 s
# each, the benchmark module's tests (bench/) check its result goldens, a
# vrsim run with every fault dimension enabled smoke-tests self-healing end
# to end, a level-1 chaos grid (membership churn + domain faults,
# invariant auditor on) must complete with zero violations, the forked
# seed and what-if grids run once, and every package's benchmarks run for
# a single iteration each (a smoke check that they still execute; bench/
# is where performance is measured).
set -eu
cd "$(dirname "$0")/.."

[ $# -eq 0 ] || { echo "verify.sh: takes no arguments" >&2; exit 2; }

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
# go test ./... replays the fold fuzzer's committed seed corpus; a short
# fuzzing run explores past it (fold vs. reference ticks, bit for bit,
# completions included).
echo "== go test ./internal/node -fuzz FuzzFoldMatchesTick (20 s)"
go test ./internal/node -run '^$' -fuzz FuzzFoldMatchesTick -fuzztime 20s
# A fold split into parts resumes where the last part ended, across the
# status mutators drawn between them, still bit for bit.
echo "== go test ./internal/node -fuzz FuzzFoldResume (10 s)"
go test ./internal/node -run '^$' -fuzz FuzzFoldResume -fuzztime 10s
# The phase cursor the fold steps through: SegmentAt's bounds exact and
# DemandAt bit-identical to MemoryDemandAtMB on drawn profiles.
echo "== go test ./internal/job -fuzz FuzzSegmentAt (10 s)"
go test ./internal/job -run '^$' -fuzz FuzzSegmentAt -fuzztime 10s
# The fault injector's drop runs: the same answers as one Float64 per
# node per period, across partitions, retirements, joins and
# snapshot/restore.
echo "== go test ./internal/faults -fuzz FuzzDropRefresh (10 s)"
go test ./internal/faults -run '^$' -fuzz FuzzDropRefresh -fuzztime 10s
# The fault streams' by-value generator: the same Int63s as math/rand's
# source for any seed, and a copied value replays them.
echo "== go test ./internal/faults -fuzz FuzzStream (10 s)"
go test ./internal/faults -run '^$' -fuzz FuzzStream -fuzztime 10s
# Fault plans: Validate rejects or is idempotent, and a validated plan
# starts an injector without panicking.
echo "== go test ./internal/faults -fuzz FuzzPlanValidate (10 s)"
go test ./internal/faults -run '^$' -fuzz FuzzPlanValidate -fuzztime 10s
# The lognormal quantile's certified window: bit for bit the 200-step
# bisection for any mu, sigma and p.
echo "== go test ./internal/stats -fuzz FuzzQuantile (10 s)"
go test ./internal/stats -run '^$' -fuzz FuzzQuantile -fuzztime 10s
# The trace decoder: never panics, and what it accepts survives an
# Encode/Decode round trip and materializes into jobs or an error.
echo "== go test ./internal/trace -fuzz FuzzTraceDecode (10 s)"
go test ./internal/trace -run '^$' -fuzz FuzzTraceDecode -fuzztime 10s
# The run-recording and JSONL event readers: never panic, every JSONL
# error names its line, and what they accept survives a round trip.
echo "== go test ./internal/record -fuzz FuzzRecordDecode (10 s)"
go test ./internal/record -run '^$' -fuzz FuzzRecordDecode -fuzztime 10s
echo "== go test ./internal/obs -fuzz FuzzReadJSONL (10 s)"
go test ./internal/obs -run '^$' -fuzz FuzzReadJSONL -fuzztime 10s
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
# The CLI always forks the seed and what-if grids from a shared warmup.
echo "== forked-grid smoke runs (cmd/vrbench -exp seeds, -exp ablate)"
go run ./cmd/vrbench -exp seeds -level 1 >/dev/null
go run ./cmd/vrbench -exp ablate -level 1 >/dev/null
echo "== go test -bench . -benchtime 1x ./... (bench smoke)"
go test -run '^$' -bench . -benchtime 1x ./...
echo "verify: OK"
