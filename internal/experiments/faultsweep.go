package experiments

import (
	"fmt"
	"io"
	"time"

	"vrcluster/internal/core"
	"vrcluster/internal/faults"
	"vrcluster/internal/metrics"
)

// FaultRow is one failure-rate point of the fault sweep: the trace run
// under V-Reconfiguration with workstation MTBF set to a multiple of the
// trace's mean job CPU demand.
type FaultRow struct {
	Multiple float64 // MTBF as a multiple of the mean job CPU demand
	MTBF     time.Duration
	Result   *metrics.Result
	Stats    core.Stats
}

// DefaultFaultLease bounds reservation drains during the fault sweep so
// leases broken by crashes or timeouts re-select a fresh candidate instead
// of pinning workstations the failures took away.
const DefaultFaultLease = 30 * time.Second

// DefaultFaultMultiples sweeps failure rates from gentle down to the
// 10x-mean-runtime bound below which requeued work restarts faster than it
// can finish.
var DefaultFaultMultiples = []float64{100, 50, 20, 10}

// FaultSweep runs one trace level under increasingly frequent workstation
// failures: for each multiple m, every workstation fails with MTBF equal
// to m times the trace's mean job CPU demand, and the remaining plan
// dimensions (crash policy, MTTR, drop rate, abort rate) come from plan as
// given. Points fan out across cfg.Parallel workers and, like every
// experiment, are byte-identical at any width. Each run is checked for
// wedges — every job must end completed or recorded killed — so a sweep
// that returns without error demonstrates graceful degradation.
func FaultSweep(cfg RunConfig, level int, plan faults.Plan, multiples []float64) ([]FaultRow, error) {
	if len(multiples) == 0 {
		multiples = DefaultFaultMultiples
	}
	for _, m := range multiples {
		if m <= 0 {
			return nil, fmt.Errorf("experiments: MTBF multiple %v must be positive", m)
		}
	}
	tr, err := cfg.standard(level)
	if err != nil {
		return nil, err
	}
	var totalCPU int64
	for _, it := range tr.Items {
		totalCPU += it.CPUMillis
	}
	meanRuntime := time.Duration(totalCPU/int64(len(tr.Items))) * time.Millisecond

	cells := make([]cell, len(multiples))
	for i, mult := range multiples {
		ccfg := cfg.clusterConfig()
		ccfg.Faults = plan
		ccfg.Faults.MTBF = time.Duration(mult * float64(meanRuntime))
		cells[i] = cell{name: fmt.Sprintf("MTBF %v (%gx mean runtime)", ccfg.Faults.MTBF, mult), trace: tr, cfg: ccfg,
			sched: vr(core.Options{Rule: cfg.Rule, Lease: DefaultFaultLease})}
	}
	runs, err := runGrid(cfg, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]FaultRow, len(runs))
	for i, r := range runs {
		rows[i] = FaultRow{Multiple: multiples[i], MTBF: cells[i].cfg.Faults.MTBF, Result: r.res, Stats: r.manager().Stats()}
	}
	return rows, nil
}

// RenderFaultRows writes the fault sweep as a fixed-width text table, one
// row per failure rate, showing how throughput and the self-healing
// counters evolve as failures become more frequent.
func RenderFaultRows(w io.Writer, rows []FaultRow) error {
	if _, err := fmt.Fprintln(w, "fault sweep — V-Reconfiguration under workstation failures"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, " %8s %10s %5s %6s %7s %8s %7s %7s %7s %8s %9s\n",
		"mtbf", "x-runtime", "done", "killed", "crashes", "requeued", "aborts", "retries", "leases", "reselect", "degraded"); err != nil {
		return err
	}
	for _, r := range rows {
		res := r.Result
		if _, err := fmt.Fprintf(w, " %8s %10.0f %5d %6d %7d %8d %7d %7d %7d %8d %9d\n",
			r.MTBF.Round(time.Second), r.Multiple, res.Completed, res.Killed,
			res.NodeCrashes, res.JobsRequeued, res.MigrationAborts, res.MigrationRetries,
			res.LeaseExpiries, res.LeaseReselections, res.DegradedLocal+res.DegradedAdmits); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
