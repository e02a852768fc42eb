// Package experiments defines one reproduction harness per table and
// figure in the paper's evaluation (Section 4): it runs the published
// workload traces through G-Loadsharing and V-Reconfiguration on the
// matching simulated cluster and emits the same rows and series the paper
// reports, side by side with the paper's published reductions.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"vrcluster/internal/analytic"
	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/metrics"
	"vrcluster/internal/obs"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// RunConfig parameterizes a group's evaluation runs.
type RunConfig struct {
	Group   workload.Group
	Seed    int64
	Quantum time.Duration
	Levels  []int
	Rule    core.Rule

	// Parallel is the fan-out width for independent runs: 0 means one
	// worker per CPU (runner.DefaultParallelism), 1 preserves the exact
	// sequential execution order. Results are identical either way — each
	// run owns its engine, cluster, scheduler, and trace copy, and the
	// runner reassembles outputs in input order.
	Parallel int

	// Fork selects the snapshot/fork execution strategy for the grids
	// that support it (SeedSensitivity, WhatIfGrid): the shared warmup
	// prefix is simulated once and every cell forks from the snapshot.
	// Purely an execution strategy — results are byte-identical to the
	// fresh strategy, enforced by the fork-vs-fresh equivalence suite.
	Fork bool

	// Metrics, when set, attaches live telemetry to every run built by
	// this config: each run gets a stream tracer feeding the registry
	// series labeled (policy, trace, level), so vrbench -metrics serves
	// in-flight aggregates while the grids execute. Runs that already
	// carry a tracer (via a mutate hook) keep it and gain the series.
	// Purely observational: the simulated schedule is unchanged.
	Metrics *obs.Registry
}

// DefaultSeed keeps every published number reproducible.
const DefaultSeed = 42

func (c *RunConfig) validate() error {
	if c.Group != workload.Group1 && c.Group != workload.Group2 {
		return fmt.Errorf("experiments: unknown group %d", c.Group)
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Quantum == 0 {
		c.Quantum = 100 * time.Millisecond
	}
	if len(c.Levels) == 0 {
		c.Levels = []int{1, 2, 3, 4, 5}
	}
	for i, l := range c.Levels {
		if l < 1 || l > len(trace.Levels) {
			return fmt.Errorf("experiments: level %d out of range", l)
		}
		if slices.Contains(c.Levels[:i], l) {
			return fmt.Errorf("experiments: duplicate level %d", l)
		}
	}
	if c.Rule == 0 {
		c.Rule = core.RuleFullDrain
	}
	return nil
}

// standard validates the config and builds the standard trace of one
// level.
func (c *RunConfig) standard(level int) (*trace.Trace, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return trace.Standard(c.Group, level, c.Seed)
}

// generated validates the config and builds a trace with the intensity,
// size and window of one standard level, drawn from the named programs
// (every program of the group when nil).
func (c *RunConfig) generated(level int, name string, programs []string) (*trace.Trace, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if level < 1 || level > len(trace.Levels) {
		return nil, fmt.Errorf("experiments: level %d out of range", level)
	}
	lvl := trace.Levels[level-1]
	return trace.Generate(trace.Config{
		Name:     fmt.Sprintf("%s-%d", name, level),
		Group:    c.Group,
		Sigma:    lvl.Sigma,
		Mu:       lvl.Sigma,
		Jobs:     lvl.Jobs,
		Duration: lvl.Duration,
		Nodes:    trace.StandardNodes,
		Seed:     c.Seed,
		Programs: programs,
	})
}

// LevelRun holds the paired results for one submission intensity.
type LevelRun struct {
	Level   int
	Base    *metrics.Result
	VR      *metrics.Result
	Gain    analytic.Gain
	Records []core.ReservationRecord

	// Elapsed is the wall-clock cost of this level's paired simulations
	// (not part of the deterministic result set).
	Elapsed time.Duration
}

// GroupRuns holds the full evaluation of one workload group.
type GroupRuns struct {
	Group  workload.Group
	Levels []LevelRun

	// Wall is the wall-clock time of the whole sweep; Work is the sum of
	// per-level Elapsed. Work/Wall is the realized parallel speedup.
	Wall time.Duration
	Work time.Duration
}

// Speedup reports the realized parallel speedup of the sweep: total
// per-level work divided by wall-clock time (≈1 when sequential).
func (gr *GroupRuns) Speedup() float64 {
	if gr.Wall <= 0 {
		return 0
	}
	return float64(gr.Work) / float64(gr.Wall)
}

// clusterConfig returns the simulated cluster matching the group, at the
// configured quantum.
func (c RunConfig) clusterConfig() cluster.Config {
	cfg := cluster.Cluster1()
	if c.Group == workload.Group2 {
		cfg = cluster.Cluster2()
	}
	cfg.Quantum = c.Quantum
	return cfg
}

// Run executes the paired trace-driven simulations for a group: every
// level's trace under G-Loadsharing and under V-Reconfiguration, fanned
// out across cfg.Parallel workers with results byte-identical to a
// sequential sweep of the same seeds.
func Run(cfg RunConfig) (*GroupRuns, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	ccfg := cfg.clusterConfig()
	var cells []cell
	for _, lvl := range cfg.Levels {
		tr, err := trace.Standard(cfg.Group, lvl, cfg.Seed)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("level %d", lvl)
		cells = append(cells,
			cell{name: name, trace: tr, cfg: ccfg, sched: gls},
			cell{name: name, trace: tr, cfg: ccfg, sched: vr(core.Options{Rule: cfg.Rule})})
	}
	runs, err := runGrid(cfg, cells)
	if err != nil {
		return nil, err
	}
	out := &GroupRuns{Group: cfg.Group, Wall: time.Since(start)}
	for i, lvl := range cfg.Levels {
		base, v := runs[2*i], runs[2*i+1]
		recs := v.manager().Records()
		gain, err := analytic.Compare(base.res, v.res, recs)
		if err != nil {
			return nil, err
		}
		lr := LevelRun{Level: lvl, Base: base.res, VR: v.res, Gain: gain, Records: recs, Elapsed: base.elapsed + v.elapsed}
		out.Work += lr.Elapsed
		out.Levels = append(out.Levels, lr)
	}
	return out, nil
}

// Row is one trace's comparison in a figure: the measured baseline and
// reconfigured values, the measured relative reduction, and the paper's
// published reduction where available (NaN otherwise).
type Row struct {
	Trace          string
	Base           float64
	VR             float64
	Reduction      float64
	PaperReduction float64
}

// Table is one rendered experiment output.
type Table struct {
	ID    string
	Title string
	Unit  string
	Rows  []Row
}

// Published reductions from Section 4 (fractions; NaN = not published,
// described only as "modest" or "small").
var (
	paperFig1Exec  = []float64{0.293, 0.324, 0.324, 0.303, 0.274}
	paperFig1Queue = []float64{0.248, 0.358, 0.367, 0.340, 0.382}
	paperFig2Slow  = []float64{0.234, 0.277, 0.226, 0.246, 0.2846}
	paperFig2Idle  = []float64{0.129, 0.242, 0.297, 0.409, 0.508}
	paperFig3Exec  = []float64{math.NaN(), 0.134, 0.140, math.NaN(), math.NaN()}
	paperFig3Queue = []float64{math.NaN(), 0.163, 0.168, math.NaN(), math.NaN()}
	paperFig4Slow  = []float64{math.NaN(), 0.163, 0.168, 0.068, math.NaN()}
	paperFig4Skew  = []float64{math.NaN(), 0.103, 0.165, 0.063, math.NaN()}
)

func paperValue(ref []float64, level int) float64 {
	if level < 1 || level > len(ref) {
		return math.NaN()
	}
	return ref[level-1]
}

func (gr *GroupRuns) rows(metric func(*metrics.Result) float64, ref []float64) []Row {
	rows := make([]Row, 0, len(gr.Levels))
	for _, lr := range gr.Levels {
		b, v := metric(lr.Base), metric(lr.VR)
		rows = append(rows, Row{
			Trace:          lr.Base.Trace,
			Base:           b,
			VR:             v,
			Reduction:      metrics.Reduction(b, v),
			PaperReduction: paperValue(ref, lr.Level),
		})
	}
	return rows
}

// ExecQueueTables reproduces Figure 1 (group 1) or Figure 3 (group 2): the
// total execution times and total queuing times of the five traces under
// both policies.
func (gr *GroupRuns) ExecQueueTables() []Table {
	id, refExec, refQueue := "Figure 1", paperFig1Exec, paperFig1Queue
	if gr.Group == workload.Group2 {
		id, refExec, refQueue = "Figure 3", paperFig3Exec, paperFig3Queue
	}
	return []Table{
		{
			ID:    id + " (left)",
			Title: "Total execution times",
			Unit:  "s",
			Rows:  gr.rows(func(r *metrics.Result) float64 { return r.TotalExec.Seconds() }, refExec),
		},
		{
			ID:    id + " (right)",
			Title: "Total queuing times",
			Unit:  "s",
			Rows:  gr.rows(func(r *metrics.Result) float64 { return r.TotalQueue.Seconds() }, refQueue),
		},
	}
}

// SlowdownTables reproduces Figure 2 (group 1) or Figure 4 (group 2): the
// average slowdowns plus the group-specific second panel — average idle
// memory volumes for group 1, average job balance skew for group 2.
func (gr *GroupRuns) SlowdownTables() []Table {
	if gr.Group == workload.Group2 {
		return []Table{
			{
				ID:    "Figure 4 (left)",
				Title: "Average slowdowns",
				Unit:  "x",
				Rows:  gr.rows(func(r *metrics.Result) float64 { return r.MeanSlowdown }, paperFig4Slow),
			},
			{
				ID:    "Figure 4 (right)",
				Title: "Average job balance skew (non-reserved workstations)",
				Unit:  "jobs",
				Rows:  gr.rows(func(r *metrics.Result) float64 { return r.AvgSkew }, paperFig4Skew),
			},
		}
	}
	return []Table{
		{
			ID:    "Figure 2 (left)",
			Title: "Average slowdowns",
			Unit:  "x",
			Rows:  gr.rows(func(r *metrics.Result) float64 { return r.MeanSlowdown }, paperFig2Slow),
		},
		{
			ID:    "Figure 2 (right)",
			Title: "Average idle memory volumes",
			Unit:  "MB",
			Rows:  gr.rows(func(r *metrics.Result) float64 { return r.AvgIdleMB }, paperFig2Idle),
		},
	}
}

// IntervalRow verifies the paper's measurement-interval insensitivity
// claim: the average idle memory volume and job balance skew computed at
// 1 s, 10 s, 30 s, and 1 min sampling are nearly identical.
type IntervalRow struct {
	Trace  string
	Policy string
	Idle   [4]float64
	Skew   [4]float64
}

// SamplingIntervals are the four intervals the paper cross-checks.
var SamplingIntervals = [4]time.Duration{time.Second, 10 * time.Second, 30 * time.Second, time.Minute}

// IntervalInsensitivity recomputes the sampled averages at the paper's
// four intervals for every run.
func (gr *GroupRuns) IntervalInsensitivity() ([]IntervalRow, error) {
	var rows []IntervalRow
	for _, lr := range gr.Levels {
		for _, r := range []*metrics.Result{lr.Base, lr.VR} {
			col := r.Collector()
			if col == nil {
				return nil, errors.New("experiments: result has no collector")
			}
			row := IntervalRow{Trace: r.Trace, Policy: r.Policy}
			for i, iv := range SamplingIntervals {
				idle, err := col.AvgIdleMB(iv)
				if err != nil {
					return nil, err
				}
				skew, err := col.AvgSkew(iv)
				if err != nil {
					return nil, err
				}
				row.Idle[i] = idle
				row.Skew[i] = skew
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// AnalyticRow is the Section 5 verification of one level: the identity
// check, the gain condition, and the model's prediction error.
type AnalyticRow struct {
	Trace           string
	IdentityOK      bool
	ConditionHolds  bool
	MeasuredGain    time.Duration
	PredictedGain   time.Duration
	ReservedBound   time.Duration
	PredictionError float64
}

// AnalyticCheck verifies the Section 5 model against every paired run.
// The identity tolerance is one scheduling quantum per job.
func (gr *GroupRuns) AnalyticCheck(quantum time.Duration) []AnalyticRow {
	rows := make([]AnalyticRow, 0, len(gr.Levels))
	for _, lr := range gr.Levels {
		tol := time.Duration(lr.Base.Jobs) * quantum
		row := AnalyticRow{
			Trace:           lr.Base.Trace,
			IdentityOK:      analytic.VerifyIdentity(lr.Base, tol) == nil && analytic.VerifyIdentity(lr.VR, tol) == nil,
			ConditionHolds:  lr.Gain.ConditionHolds(),
			MeasuredGain:    lr.Gain.DeltaExec,
			PredictedGain:   lr.Gain.Predicted(),
			ReservedBound:   lr.Gain.ReservedBound,
			PredictionError: lr.Gain.PredictionError(),
		}
		rows = append(rows, row)
	}
	return rows
}

// CatalogRow is one program of Table 1 or Table 2.
type CatalogRow struct {
	Program     string
	Description string
	Input       string
	WorkingSet  string
	Lifetime    string
}

// CatalogTable reproduces Table 1 (group 1) or Table 2 (group 2).
func CatalogTable(g workload.Group) ([]CatalogRow, error) {
	programs := workload.Programs(g)
	if programs == nil {
		return nil, fmt.Errorf("experiments: unknown group %d", g)
	}
	rows := make([]CatalogRow, 0, len(programs))
	for _, p := range programs {
		ws := fmt.Sprintf("%.1f", p.WorkingSetMB)
		if p.MinWorkingSetMB < p.WorkingSetMB {
			ws = fmt.Sprintf("%.1f-%.1f", p.MinWorkingSetMB, p.WorkingSetMB)
		}
		rows = append(rows, CatalogRow{
			Program:     p.Name,
			Description: p.Description,
			Input:       p.Input,
			WorkingSet:  ws,
			Lifetime:    fmt.Sprintf("%.1f", p.Lifetime.Seconds()),
		})
	}
	return rows, nil
}

// SeedRow is one seed's headline reductions on a trace level.
type SeedRow struct {
	Seed     int64
	Exec     float64
	Queue    float64
	Slowdown float64
}

// SeedSensitivity reruns the paired comparison for one trace level across
// several generation seeds, reporting each seed's reductions — a
// robustness check that the headline result is not an artifact of one
// random trace. Each seed's workload is a composite: the warmup prefix of
// the base-seed trace (cfg.Seed, up to DefaultWarmupFrac of the window)
// joined with the tail of the seed's own trace, so every cell shares an
// identical prefix. With cfg.Fork that prefix is simulated once per chunk
// and policy, and each cell forks from the snapshot; otherwise every cell
// runs its composite from scratch. Both strategies produce byte-identical
// rows at any cfg.Parallel width.
func SeedSensitivity(cfg RunConfig, level int, seeds []int64) ([]SeedRow, error) {
	if len(seeds) == 0 {
		return nil, errors.New("experiments: no seeds")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pg, comps, err := seedComposites(cfg, level, seeds)
	if err != nil {
		return nil, err
	}
	// One warmup per policy: the two groups share the head but not the
	// scheduler.
	pv := &prefix{head: pg.head, at: pg.at}
	ccfg := cfg.clusterConfig()
	cells := make([]cell, 0, 2*len(seeds))
	for i, comp := range comps {
		g, v := pg, pv
		if len(comp.Items) == len(pg.head.Items) {
			// An empty tail runs fresh: a held-open warmup would
			// out-sample a fresh run that quiesces before the fork point.
			g, v = nil, nil
		}
		name := fmt.Sprintf("seed %d", seeds[i])
		cells = append(cells,
			cell{name: name, trace: comp, cfg: ccfg, sched: gls, prefix: g},
			cell{name: name, trace: comp, cfg: ccfg, sched: vr(core.Options{Rule: cfg.Rule}), prefix: v})
	}
	runs, err := runGrid(cfg, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]SeedRow, len(seeds))
	for i, seed := range seeds {
		rows[i] = seedRow(seed, runs[2*i].res, runs[2*i+1].res)
	}
	return rows, nil
}
