// Package vrcluster_test holds micro-benchmarks of the simulator's hot
// paths and the steady-state windows TestSteadyStateAllocs guards. The
// end-to-end workloads (the paper run, the pressured cluster, the forked
// grids and the operator configuration) are measured by the benchmark
// module in bench/ (bash bench/run.sh).
package vrcluster_test

import (
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/experiments"
	"vrcluster/internal/faults"
	"vrcluster/internal/job"
	"vrcluster/internal/memory"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
	"vrcluster/internal/sim"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// benchQuantum is vrbench's default quantum, used by the blocked window.
const benchQuantum = 100 * time.Millisecond

// Micro-benchmarks of the simulator substrate.

// BenchmarkEngineScheduleRun measures raw event throughput: each of the
// b.N operations is one scheduled-and-executed event. Scheduling and
// draining are interleaved in batches so b.N covers both halves and the
// arena reaches its zero-allocation steady state (heap and slot arrays
// stop growing, the free list recycles every slot).
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%batch)*time.Microsecond, fn)
		if i%batch == batch-1 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineScheduleCancel mixes scheduling with O(1) cancellation:
// each operation schedules one event and cancels the one scheduled half a
// ring ago, so roughly half the cancels hit pending events (exercising
// immediate slot release) and half miss already-fired ones. Guards the
// arena against free-list or generation-stamp regressions.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	const ring = 256
	var handles [ring]sim.Handle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % ring
		e.Cancel(handles[(slot+ring/2)%ring])
		handles[slot] = e.After(time.Duration(slot)*time.Microsecond, fn)
		if slot == ring-1 {
			e.Run() // drain live events and lazily drop cancelled entries
		}
	}
	e.Run()
}

// BenchmarkNodeFold measures the quantum fold one layer down from the
// cluster: each operation rewinds a four-job workstation and folds the
// next foldQuanta quanta at a 10 ms quantum, in one regime of
// foldEnd.advance per sub-benchmark. steady holds flat jobs below user
// memory (one steady run); unpressured-ramp adds two ramping jobs below it
// (ramp runs that step only those two); pressured puts the same mix above
// it (pressured runs that charge once per tick and step only the two
// ramps); pressured-io gives its first job an I/O rate, so every tick is
// made in full. ns/quantum divides out the stretch.
func BenchmarkNodeFold(b *testing.B) {
	const foldQuanta = 1000
	flat := func(mb float64) []job.Phase { return []job.Phase{{EndFrac: 1, StartMB: mb, EndMB: mb}} }
	ramp := func(from, to float64) []job.Phase {
		return []job.Phase{{EndFrac: 0.5, StartMB: from, EndMB: to}, {EndFrac: 1, StartMB: to, EndMB: to}}
	}
	mix := [][]job.Phase{flat(60), ramp(40, 120), flat(40), ramp(90, 30)}
	for _, c := range []struct {
		name   string
		memMB  float64
		phases [][]job.Phase
		ioRate float64 // the first job's
	}{
		{"steady", 384, [][]job.Phase{flat(60), flat(80), flat(40), flat(70)}, 0},
		{"unpressured-ramp", 384, mix, 0},
		{"pressured", 200, mix, 0},
		{"pressured-io", 200, mix, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			n, err := node.New(node.Config{CPUSpeedMHz: 400, CPUThreshold: 4,
				Memory: memory.Config{CapacityMB: c.memMB, UserFraction: 1}})
			if err != nil {
				b.Fatal(err)
			}
			jobs := make([]*job.Job, len(c.phases))
			for i, ph := range c.phases {
				if jobs[i], err = job.New(i, "fold", time.Hour, ph, 0); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					jobs[i].SetIORate(c.ioRate)
				}
				if err := n.Admit(jobs[i], 0); err != nil {
					b.Fatal(err)
				}
			}
			dt := 10 * time.Millisecond
			if _, err := n.Fold(dt, dt, 1); err != nil {
				b.Fatal(err)
			}
			if n.Pressured() != (c.memMB < 384) {
				b.Fatalf("%s: node pressured=%v", c.name, n.Pressured())
			}
			snap, js := n.Snapshot(), make([]job.Snapshot, len(jobs))
			for i, j := range jobs {
				js[i] = j.Snapshot()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Restore(snap)
				for k, j := range jobs {
					j.Restore(js[k])
				}
				if _, err := n.Fold(dt, 2*dt, foldQuanta); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/foldQuanta, "ns/quantum")
		})
	}
}

// BenchmarkTraceGenerate measures standard trace synthesis.
func BenchmarkTraceGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.Standard(workload.Group1, 3, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClusterTrace synthesizes the 60-job trace of the steady-state
// windows on Cluster1.
func benchClusterTrace(b testing.TB) *trace.Trace {
	b.Helper()
	tr, err := trace.Generate(trace.Config{
		Name:     "bench",
		Group:    workload.Group1,
		Sigma:    2,
		Mu:       2,
		Jobs:     60,
		Duration: 10 * time.Minute,
		Nodes:    32,
		Seed:     1,
		Jitter:   workload.DefaultJitter,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchPressuredTrace synthesizes the pressure-saturated trace of
// BenchmarkClusterRunPressured and the pressured window: the Group1 mix
// restricted to its four largest working sets at ~3 resident jobs per
// workstation at the saturation peak, so demand sits above user memory for
// most of the run.
// The slow-ramp programs (apsi, mcf) keep the quantum fold stepping through
// pressured ramps while the quick-ramp ones (gzip, bzip) add long
// pressured-flat stretches, so the fold runs through all of its pressured
// regimes.
func benchPressuredTrace(b testing.TB) *trace.Trace {
	b.Helper()
	tr, err := trace.Generate(trace.Config{
		Name:     "bench-pressured",
		Group:    workload.Group1,
		Sigma:    2,
		Mu:       2,
		Jobs:     96,
		Duration: 5 * time.Minute,
		Nodes:    32,
		Seed:     1,
		Programs: []string{"apsi", "mcf", "gzip", "bzip"},
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkClusterRunPressured measures a pressure-heavy trace execution
// under the full V-Reconfiguration stack, at the fine 10 ms quantum, where
// the node quantum fold covers the pressured stretches.
func BenchmarkClusterRunPressured(b *testing.B) {
	tr := benchPressuredTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := core.NewVReconfiguration(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := cluster.Cluster1()
		cfg.Quantum = 10 * time.Millisecond
		c, err := cluster.New(cfg, sched)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForkGrid measures the forked grids at level 1: a five-seed
// sensitivity grid, then the standard what-if grid, each forking every
// cell from one shared warmup, as bench's forkgrid workload does.
func BenchmarkForkGrid(b *testing.B) {
	cfg := experiments.RunConfig{
		Group:    workload.Group2,
		Quantum:  benchQuantum,
		Parallel: 1,
		Fork:     true,
	}
	seeds := []int64{42, 43, 44, 45, 46}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SeedSensitivity(cfg, 1, seeds); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.WhatIfGrid(cfg, 1, experiments.StandardWhatIfs(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultInjector measures the fault injector for the chaos
// workload's plan (bench/workloads.go) on its 128 workstations in 8
// failure domains. new builds and starts an injector on a fresh engine, as
// every chaos pass does; snapshot and restore copy a started injector out
// after 100 control periods and back, as a forked fault run does.
func BenchmarkFaultInjector(b *testing.B) {
	const nodes = 128
	plan := faults.Plan{
		Seed:          42,
		Crash:         faults.Requeue,
		MTBF:          2 * time.Hour,
		DropRate:      0.05,
		AbortRate:     0.1,
		Domains:       8,
		DomainMTBF:    3 * time.Hour,
		PartitionMTBF: 2 * time.Hour,
	}
	start := func(b *testing.B) *faults.Injector {
		in, err := faults.NewInjector(sim.NewEngine(), plan, nodes, faults.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		in.Start()
		return in
	}
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			start(b)
		}
	})
	in := start(b)
	for range 100 {
		in.Drops()
		in.AbortMigration()
	}
	snap := in.Snapshot()
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in.Snapshot()
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in.Restore(snap)
		}
	})
}

// Steady-state windows: the cluster is armed and warmed up once, then every
// iteration rewinds to the warmup snapshot and re-simulates one second of
// quantum, control and sampling activity. Restore reuses live backing
// arrays, the event arena recycles its slots, and the control period
// reuses its pending-queue and audit buffers, so once the buffers reach
// their steady-state capacity a window must not allocate.
// TestSteadyStateAllocs enforces that for every window below; the
// benchmarks report it as allocs/op.

// steadyCase describes one steady-state window.
type steadyCase struct {
	name   string
	warmup time.Duration
	// blocked requires submissions to be waiting in the pending queue at
	// the snapshot, so each window retries them.
	blocked bool
	// partitioned requires exactly one failure domain to be partitioned
	// at the snapshot and at the window's end, so each window's drop sets
	// carry its members.
	partitioned bool
	setup       func(tb testing.TB) (cluster.Config, *trace.Trace)
}

// steadyCases lists every steady-state window, in benchmark order.
var steadyCases = []steadyCase{
	{name: "plain", warmup: 5 * time.Minute, setup: steadyPlain},
	{name: "pressured", warmup: 4 * time.Minute, setup: steadyPressured},
	{name: "metrics", warmup: 5 * time.Minute, setup: steadyMetrics},
	{name: "blocked", warmup: 10 * time.Minute, blocked: true, setup: steadyBlocked},
	{name: "audit", warmup: 5 * time.Minute, setup: steadyAudit},
	{name: "drops", warmup: 5 * time.Minute, setup: steadyDrops},
	{name: "partition", warmup: 5 * time.Minute, partitioned: true, setup: steadyPartition},
}

// steadyPlain runs the shared 60-job trace on Cluster1 at 10 ms.
func steadyPlain(tb testing.TB) (cluster.Config, *trace.Trace) {
	cfg := cluster.Cluster1()
	cfg.Quantum = 10 * time.Millisecond
	return cfg, benchClusterTrace(tb)
}

// steadyPressured snapshots the saturated trace at its residency peak, so
// the window runs the quantum fold through pressured stretches and pins
// its scratch buffers.
func steadyPressured(tb testing.TB) (cluster.Config, *trace.Trace) {
	cfg := cluster.Cluster1()
	cfg.Quantum = 10 * time.Millisecond
	return cfg, benchPressuredTrace(tb)
}

// steadyMetrics attaches the full live-telemetry fan-out: a stream tracer
// feeding a metrics series and a flight recorder. Folding every event into
// atomic counters, histograms, partition gauges and the anomaly ring must
// not allocate once the series' backing arrays exist.
func steadyMetrics(tb testing.TB) (cluster.Config, *trace.Trace) {
	cfg, tr := steadyPlain(tb)
	cfg.Obs = obs.NewStreamTracer()
	cfg.Obs.SetMetrics(obs.NewRegistry().Series("vr", tr.Name, 1))
	cfg.Obs.SetFlightRecorder(obs.NewFlightRecorder(obs.FlightConfig{}))
	return cfg, tr
}

// steadyBlocked runs App-Trace-2 on Cluster2 at vrbench's 100 ms quantum,
// snapshotted while well over a hundred submissions are blocked, so the
// window's control tick retries every one of them.
func steadyBlocked(tb testing.TB) (cluster.Config, *trace.Trace) {
	tr, err := trace.Standard(workload.Group2, 2, 42)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := cluster.Cluster2()
	cfg.Quantum = benchQuantum
	return cfg, tr
}

// steadyAudit runs the invariant auditor at every control period.
func steadyAudit(tb testing.TB) (cluster.Config, *trace.Trace) {
	cfg, tr := steadyPlain(tb)
	cfg.Audit = true
	return cfg, tr
}

// steadyDrops is the operator configuration's per-period bookkeeping: the
// metrics window's telemetry fan-out (per-node samples in one batch), the
// auditor (job stamps) and a fault plan dropping 5% of load-information
// exchanges (drop draws in runs, discarded and redrawn across Restore).
func steadyDrops(tb testing.TB) (cluster.Config, *trace.Trace) {
	cfg, tr := steadyMetrics(tb)
	cfg.Audit = true
	cfg.Faults = faults.Plan{DropRate: 0.05, Domains: 8}
	return cfg, tr
}

// steadyPartition is the drops window with one of its eight failure
// domains partitioned from the rest: the partition that opens first never
// heals within the run, and the next does not open before the window ends.
func steadyPartition(tb testing.TB) (cluster.Config, *trace.Trace) {
	cfg, tr := steadyDrops(tb)
	cfg.Faults.PartitionMTBF = 30 * time.Minute
	cfg.Faults.PartitionMTTR = 1000 * time.Hour
	return cfg, tr
}

// partitionedDomains counts the failure domains c's injector holds
// partitioned; node d belongs to domain d.
func partitionedDomains(c *cluster.Cluster) int {
	in := c.Injector()
	n := 0
	for d := 0; d < in.Plan().Domains; d++ {
		if in.Partitioned(d) {
			n++
		}
	}
	return n
}

// arm builds the case's cluster under V-Reconfiguration, runs it to the
// warmup instant and snapshots it there. The returned function rewinds to
// the snapshot and re-simulates the window after it; arm primes it twice,
// so the pending queue's two alternating buffers both reach capacity.
func (sc steadyCase) arm(tb testing.TB) func() {
	tb.Helper()
	const window = time.Second
	cfg, tr := sc.setup(tb)
	sched, err := core.NewVReconfiguration(core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := cluster.New(cfg, sched)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Start(tr); err != nil {
		tb.Fatal(err)
	}
	if err := c.RunToDivergence(sc.warmup); err != nil {
		tb.Fatal(err)
	}
	if sc.blocked && c.PendingCount() == 0 {
		tb.Fatalf("%s: no blocked submissions at %v", sc.name, sc.warmup)
	}
	if sc.partitioned && partitionedDomains(c) != 1 {
		tb.Fatalf("%s: %d partitioned domains at %v, want 1", sc.name, partitionedDomains(c), sc.warmup)
	}
	snap, err := c.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	run := func() {
		if err := c.Restore(snap); err != nil {
			tb.Fatal(err)
		}
		if err := c.RunToDivergence(sc.warmup + window); err != nil {
			tb.Fatal(err)
		}
	}
	run()
	run()
	if sc.partitioned && partitionedDomains(c) != 1 {
		tb.Fatalf("%s: %d partitioned domains after the window, want 1", sc.name, partitionedDomains(c))
	}
	return run
}

// BenchmarkClusterRunSteady measures every steady-state window, one
// sub-benchmark per steadyCases entry.
func BenchmarkClusterRunSteady(b *testing.B) {
	for _, sc := range steadyCases {
		b.Run(sc.name, func(b *testing.B) {
			run := sc.arm(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
