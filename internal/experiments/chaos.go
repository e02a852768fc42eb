package experiments

import (
	"fmt"
	"io"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/faults"
	"vrcluster/internal/metrics"
	"vrcluster/internal/trace"
)

// ChaosScenario is one elastic-membership stress mix: scripted membership
// churn, correlated domain faults, the autoscaler, or their combination,
// always with the baseline fault dimensions (crashes, drops, aborts) on.
type ChaosScenario struct {
	Name       string
	Membership bool // scripted joins and drains during the run
	Domains    bool // correlated domain crash waves and network partitions
	Autoscale  bool // utilization-threshold autoscaler
}

// DefaultChaosScenarios cross membership churn with correlated domain
// faults; the combined scenario also runs the autoscaler, so scripted
// drains, autoscaler drains, domain outages, and partitions all interleave.
var DefaultChaosScenarios = []ChaosScenario{
	{Name: "churn", Membership: true},
	{Name: "domains", Domains: true},
	{Name: "churn+domains", Membership: true, Domains: true, Autoscale: true},
}

// ChaosRow is one run of the chaos grid, with the invariant auditor's
// verdict alongside the usual completion and self-healing counters.
type ChaosRow struct {
	Scenario   string
	Level      int
	Policy     string
	Result     *metrics.Result
	Audits     int // invariant snapshots checked
	Violations int // invariant breaches (a passing grid is all zeros)
}

// ChaosSweep runs the elastic-membership chaos grid: every scenario at
// every level under both policies, with the runtime invariant auditor
// checking job conservation, memory accounting, lease integrity, and the
// removed-node event discipline at every control period. Cells fan out
// across cfg.Parallel workers and, like every experiment, the grid is
// byte-identical at any width. A sweep that returns without error
// demonstrates that no cell wedged and no invariant broke.
func ChaosSweep(cfg RunConfig, scenarios []ChaosScenario) ([]ChaosRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		scenarios = DefaultChaosScenarios
	}
	traces := make([]*trace.Trace, len(cfg.Levels))
	for i, lvl := range cfg.Levels {
		tr, err := trace.Standard(cfg.Group, lvl, cfg.Seed)
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}
	var cells []cell
	var rows []ChaosRow
	for _, s := range scenarios {
		for i, lvl := range cfg.Levels {
			name := fmt.Sprintf("chaos %s level %d", s.Name, lvl)
			ccfg := chaosConfig(cfg, s, traces[i])
			cells = append(cells,
				cell{name: name, trace: traces[i], cfg: ccfg, sched: gls},
				cell{name: name, trace: traces[i], cfg: ccfg, sched: vr(core.Options{Rule: cfg.Rule, Lease: DefaultFaultLease})})
			rows = append(rows, ChaosRow{Scenario: s.Name, Level: lvl}, ChaosRow{Scenario: s.Name, Level: lvl})
		}
	}
	runs, err := runGrid(cfg, cells)
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		aud := r.c.Auditor()
		rows[i].Policy, rows[i].Result = r.res.Policy, r.res
		rows[i].Audits, rows[i].Violations = aud.Checks(), len(aud.Violations())
	}
	return rows, nil
}

// chaosConfig is the cluster of one (scenario, level) cell: the baseline
// fault dimensions scaled to the trace's mean job runtime, plus the
// scenario's membership script, domain faults and autoscaler, with the
// invariant auditor on.
func chaosConfig(cfg RunConfig, scen ChaosScenario, tr *trace.Trace) cluster.Config {
	var totalCPU, horizonMillis int64
	for _, it := range tr.Items {
		totalCPU += it.CPUMillis
		if it.SubmitMillis > horizonMillis {
			horizonMillis = it.SubmitMillis
		}
	}
	meanRuntime := time.Duration(totalCPU/int64(len(tr.Items))) * time.Millisecond
	horizon := time.Duration(horizonMillis) * time.Millisecond

	ccfg := cfg.clusterConfig()
	ccfg.Audit = true
	proto := ccfg.Nodes[0]

	plan := faults.Plan{
		Crash:     faults.Requeue,
		MTBF:      time.Duration(50 * float64(meanRuntime)),
		DropRate:  0.05,
		AbortRate: 0.1,
	}
	if scen.Domains {
		plan.Domains = 4
		plan.DomainMTBF = time.Duration(60 * float64(meanRuntime))
		plan.PartitionMTBF = time.Duration(40 * float64(meanRuntime))
	}
	ccfg.Faults = plan

	if scen.Membership {
		n := len(ccfg.Nodes)
		ccfg.Membership = []cluster.MembershipEvent{
			{At: horizon / 4, Kind: cluster.MemberJoin, Node: proto},
			{At: horizon / 3, Kind: cluster.MemberJoin, Node: proto},
			{At: horizon / 2, Kind: cluster.MemberDrain, ID: n - 1},
			{At: 2 * horizon / 3, Kind: cluster.MemberDrain, ID: n - 2},
		}
	}
	if scen.Autoscale {
		ccfg.Autoscale = cluster.AutoscaleConfig{
			MaxNodes: len(ccfg.Nodes) + 8,
			MinNodes: len(ccfg.Nodes) / 2,
			Proto:    proto,
		}
	}
	return ccfg
}

// RenderChaos writes the chaos grid as a fixed-width text table, one row
// per (scenario, level, policy) cell.
func RenderChaos(w io.Writer, rows []ChaosRow) error {
	if _, err := fmt.Fprintln(w, "chaos grid — elastic membership under faults, invariant auditor on"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, " %-14s %5s %-17s %5s %6s %5s %6s %7s %9s %7s %8s %6s %5s\n",
		"scenario", "level", "policy", "done", "killed", "joins", "drains", "removed", "drainmigs", "crashes", "cutoffs", "audits", "viols"); err != nil {
		return err
	}
	for _, r := range rows {
		res := r.Result
		if _, err := fmt.Fprintf(w, " %-14s %5d %-17s %5d %6d %5d %6d %7d %9d %7d %8d %6d %5d\n",
			r.Scenario, r.Level, r.Policy, res.Completed, res.Killed,
			res.NodesJoined, res.NodesDrained, res.NodesRemoved, res.DrainMigrations,
			res.NodeCrashes, res.DomainPartitions, r.Audits, r.Violations); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
