package main

import (
	"errors"
	"fmt"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/experiments"
	"vrcluster/internal/faults"
	"vrcluster/internal/metrics"
	"vrcluster/internal/obs"
	"vrcluster/internal/policy"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// A bench workload is a pool of inputs synthesized from the seed at set-up
// and a pass that runs one input through the simulator's public API. Passes
// cycle through the pool, so a run measures many independent inputs and its
// medians move little from one seed to the next.
type benchWorkload struct {
	name  string
	why   string
	pool  int
	input func(seed int64, rec *recorder) (input, error)
	pass  func(in input, rec *recorder) (passOut, error)
}

// input is one pool entry. forkgrid's experiments synthesize their own
// traces from the seed, so its entries carry no trace.
type input struct {
	seed int64
	tr   *trace.Trace
}

// passOut is what one pass produced: every result or row (hashed into the
// pass digest), the simulated jobs completed across its results, the layer
// counters read from public accessors, and the model's headline outputs.
type passOut struct {
	results []any
	jobs    int
	counts  counts
	model   *model
}

// model holds V-Reconfiguration's reductions against G-Loadsharing in
// percent. They are printed beside the digest for readers and not gated.
type model struct {
	ExecPct  float64 `json:"exec_reduction_pct"`
	QueuePct float64 `json:"queue_reduction_pct"`
}

// counts are the per-pass layer counters. They are read from public
// accessors after each pass, so a traced and an untraced pass over the same
// input must report identical counts.
type counts struct {
	Selects           int64  `json:"selects"`
	Scanned           int64  `json:"scanned"`
	Reservations      int    `json:"reservations"`
	ReservedMigration int    `json:"reserved_migrations"`
	Migrations        int    `json:"migrations"`
	FailedLandings    int    `json:"failed_landings"`
	Aborts            int    `json:"aborts"`
	GiveUps           int    `json:"giveups"`
	Crashes           int    `json:"crashes"`
	RefreshDrops      int    `json:"refresh_drops"`
	AuditChecks       int    `json:"audit_checks"`
	AuditViolations   int    `json:"audit_violations"`
	ObsEvents         uint64 `json:"obs_events"`
	FlightDumps       int    `json:"flight_dumps"`
	VirtualNs         int64  `json:"virtual_ns"`
	Cells             int    `json:"cells"`
}

// addResult records one simulation result.
func (o *passOut) addResult(r *metrics.Result) error {
	if r.Completed+r.Killed != r.Jobs {
		return fmt.Errorf("%s/%s: %d completed + %d killed of %d jobs", r.Trace, r.Policy, r.Completed, r.Killed, r.Jobs)
	}
	o.results = append(o.results, r)
	o.jobs += r.Completed
	c := &o.counts
	c.Reservations += r.Reservations
	c.ReservedMigration += r.ReservedMigration
	c.Migrations += r.Migrations
	c.FailedLandings += r.FailedLandings
	c.Aborts += r.MigrationAborts
	c.GiveUps += r.MigrationGiveUps
	c.Crashes += r.NodeCrashes
	c.RefreshDrops += r.RefreshDrops
	c.VirtualNs += int64(r.Makespan)
	return nil
}

// addCluster records the counters a finished cluster exposes.
func (c *counts) addCluster(cl *cluster.Cluster) {
	sel, scanned := cl.Board().SelectStats()
	c.Selects += sel
	c.Scanned += scanned
	if a := cl.Auditor(); a != nil {
		c.AuditChecks += a.Checks()
		c.AuditViolations += len(a.Violations())
	}
	if s := cl.Tracer().Metrics(); s != nil {
		// KindCount is zero past the last kind, so this covers every kind
		// without naming the taxonomy's size.
		for k := 0; k < 256; k++ {
			c.ObsEvents += s.KindCount(obs.Kind(k))
		}
	}
	c.FlightDumps += cl.Tracer().Flight().Dumps()
}

// paperQuantum is vrbench's quantum for the paper's hour-long traces.
const paperQuantum = 100 * time.Millisecond

// chaosNodes caps the operator workload's cluster: audit and the shared
// link grow superlinearly with nodes, and at 512 nodes one pass takes
// seconds and allocates gigabytes.
const chaosNodes = 128

var workloads = []*benchWorkload{
	{
		name:  "paper",
		why:   "App-Trace-2 on Cluster2 under G-Loadsharing then V-Reconfiguration: the run every paper figure is built from",
		pool:  128,
		input: standardInput(workload.Group2, 2),
		pass:  paperPass,
	},
	{
		name:  "pressured",
		why:   "96 apsi/mcf/gzip/bzip jobs on Cluster1 at a 10 ms quantum: demand stays above user memory, so the quantum fold does the work",
		pool:  512,
		input: pressuredInput,
		pass:  pressuredPass,
	},
	{
		name:  "forkgrid",
		why:   "the forked seed and what-if grids: the only path through Snapshot, Restore and InjectArrivals",
		pool:  128,
		input: func(seed int64, _ *recorder) (input, error) { return input{seed: seed}, nil },
		pass:  forkgridPass,
	},
	{
		name:  "chaos",
		why:   "128 nodes with faults, shared network, audit and live telemetry: the operator's configuration",
		pool:  192,
		input: chaosInput,
		pass:  chaosPass,
	},
}

func findWorkload(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputSeed derives the seed of pool entry k. Entry 0 is the benchmark
// seed itself, so seed 42 reproduces the repository's published traces.
func inputSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	z := uint64(seed) + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Positive and far from overflow, since forkgrid adds small offsets.
	return int64(z>>2) + 1
}

func generated(seed int64, rec *recorder, gen func() (*trace.Trace, error)) (input, error) {
	rec.begin(spanTraceGenerate)
	tr, err := gen()
	rec.end()
	return input{seed: seed, tr: tr}, err
}

func standardInput(g workload.Group, level int) func(int64, *recorder) (input, error) {
	return func(seed int64, rec *recorder) (input, error) {
		return generated(seed, rec, func() (*trace.Trace, error) { return trace.Standard(g, level, seed) })
	}
}

func pressuredInput(seed int64, rec *recorder) (input, error) {
	return generated(seed, rec, func() (*trace.Trace, error) {
		return trace.Generate(trace.Config{
			Name:     "bench-pressured",
			Group:    workload.Group1,
			Sigma:    2,
			Mu:       2,
			Jobs:     96,
			Duration: 5 * time.Minute,
			Nodes:    32,
			Seed:     seed,
			Programs: []string{"apsi", "mcf", "gzip", "bzip"},
		})
	})
}

func chaosInput(seed int64, rec *recorder) (input, error) {
	return generated(seed, rec, func() (*trace.Trace, error) {
		return trace.Generate(trace.Config{
			Name:     "bench-chaos",
			Group:    workload.Group1,
			Sigma:    3,
			Mu:       3,
			Jobs:     256,
			Duration: 1800 * time.Second,
			Nodes:    chaosNodes,
			Seed:     seed,
			Jitter:   workload.DefaultJitter,
		})
	})
}

// simulate builds a cluster around sched, runs tr to completion and adds
// the result and the cluster's counters to out.
func simulate(cfg cluster.Config, sched cluster.Scheduler, tr *trace.Trace, rec *recorder, out *passOut) (*metrics.Result, error) {
	if rec != nil {
		sched = rec.wrap(sched)
	}
	rec.begin(spanClusterNew)
	c, err := cluster.New(cfg, sched)
	rec.end()
	if err != nil {
		return nil, err
	}
	rec.begin(spanClusterRun)
	res, err := c.Run(tr)
	rec.end()
	if err != nil {
		return nil, err
	}
	out.counts.addCluster(c)
	return res, out.addResult(res)
}

func reductions(base, vr *metrics.Result) *model {
	return &model{
		ExecPct:  100 * metrics.Reduction(base.TotalExec.Seconds(), vr.TotalExec.Seconds()),
		QueuePct: 100 * metrics.Reduction(base.TotalQueue.Seconds(), vr.TotalQueue.Seconds()),
	}
}

func paperPass(in input, rec *recorder) (passOut, error) {
	var out passOut
	cfg := func() cluster.Config {
		c := cluster.Cluster2()
		c.Quantum = paperQuantum
		return c
	}
	base, err := simulate(cfg(), policy.NewGLoadSharing(), in.tr.Clone(), rec, &out)
	if err != nil {
		return out, err
	}
	vr, err := core.NewVReconfiguration(core.Options{})
	if err != nil {
		return out, err
	}
	res, err := simulate(cfg(), vr, in.tr.Clone(), rec, &out)
	if err != nil {
		return out, err
	}
	out.model = reductions(base, res)
	return out, nil
}

func pressuredPass(in input, rec *recorder) (passOut, error) {
	var out passOut
	vr, err := core.NewVReconfiguration(core.Options{})
	if err != nil {
		return out, err
	}
	cfg := cluster.Cluster1()
	cfg.Quantum = 10 * time.Millisecond
	_, err = simulate(cfg, vr, in.tr.Clone(), rec, &out)
	return out, err
}

// forkgridSeeds is the width of the seed-sensitivity grid.
const forkgridSeeds = 5

func forkgridPass(in input, rec *recorder) (passOut, error) {
	var out passOut
	cfg := experiments.RunConfig{
		Group:    workload.Group2,
		Seed:     in.seed,
		Quantum:  paperQuantum,
		Parallel: 1,
		Fork:     true,
	}
	seeds := make([]int64, forkgridSeeds)
	for i := range seeds {
		seeds[i] = in.seed + int64(i)
	}
	rec.begin(spanSeedGrid)
	rows, err := experiments.SeedSensitivity(cfg, 1, seeds)
	rec.end()
	if err != nil {
		return out, err
	}
	if len(rows) != len(seeds) {
		return out, fmt.Errorf("seed grid: %d rows for %d seeds", len(rows), len(seeds))
	}
	whatIfs := experiments.StandardWhatIfs(cfg)
	rec.begin(spanWhatIfGrid)
	variants, err := experiments.WhatIfGrid(cfg, 1, whatIfs)
	rec.end()
	if err != nil {
		return out, err
	}
	if len(variants) != len(whatIfs) {
		return out, fmt.Errorf("what-if grid: %d results for %d variants", len(variants), len(whatIfs))
	}
	out.results = append(out.results, rows)
	m := &model{}
	for _, r := range rows {
		m.ExecPct += 100 * r.Exec / float64(len(rows))
		m.QueuePct += 100 * r.Queue / float64(len(rows))
	}
	out.model = m
	for _, v := range variants {
		if v.Result == nil {
			return out, fmt.Errorf("what-if %s: no result", v.Variant)
		}
		if err := out.addResult(v.Result); err != nil {
			return out, err
		}
	}
	out.counts.Cells += len(rows) + len(variants)
	return out, nil
}

// discardDump is the flight recorder's sink: the ring is still copied out
// on every trigger, as an operator's sink would receive it.
func discardDump(string, []obs.Event) error { return nil }

func chaosPass(in input, rec *recorder) (passOut, error) {
	var out passOut
	vr, err := core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
	if err != nil {
		return out, err
	}
	cfg := cluster.Homogeneous(chaosNodes, cluster.Cluster1().Nodes[0])
	cfg.Seed = 1
	cfg.Quantum = paperQuantum
	cfg.SharedNetwork = true
	cfg.Audit = true
	cfg.Faults = faults.Plan{
		Seed:          in.seed,
		Crash:         faults.Requeue,
		MTBF:          2 * time.Hour,
		DropRate:      0.05,
		AbortRate:     0.1,
		Domains:       8,
		DomainMTBF:    3 * time.Hour,
		PartitionMTBF: 2 * time.Hour,
	}
	tracer := obs.NewStreamTracer()
	tracer.SetMetrics(obs.NewRegistry().Series(vr.Name(), in.tr.Name, -1))
	tracer.SetFlightRecorder(obs.NewFlightRecorder(obs.FlightConfig{
		EpisodeSLO:   time.Minute,
		MigrationSLO: 30 * time.Second,
		Sink:         discardDump,
	}))
	cfg.Obs = tracer
	_, err = simulate(cfg, vr, in.tr.Clone(), rec, &out)
	if err == nil && out.counts.AuditViolations > 0 {
		err = errors.New("auditor reported violations")
	}
	return out, err
}
