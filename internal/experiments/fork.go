package experiments

import (
	"errors"
	"fmt"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/metrics"
	"vrcluster/internal/policy"
	"vrcluster/internal/trace"
)

// DefaultWarmupFrac places the fork point at this fraction of a level's
// submission window. The lognormal arrival bursts concentrate most of the
// simulation work before it, so the seed grid shares the expensive prefix
// and re-simulates only the divergent tails.
const DefaultWarmupFrac = 0.75

// warmupInstant is the divergence point for one trace level.
func warmupInstant(level int) time.Duration {
	lvl := trace.Levels[level-1]
	return time.Duration(DefaultWarmupFrac * float64(lvl.Duration))
}

// seedComposites builds the shared warmup prefix and every seed's
// composite trace for one level: the head of the base-seed trace joined
// with the tail of the seed's own.
func seedComposites(cfg RunConfig, level int, seeds []int64) (*prefix, []*trace.Trace, error) {
	base, err := trace.Standard(cfg.Group, level, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	p := &prefix{at: warmupInstant(level)}
	p.head, _ = base.SplitAt(p.at)
	comps := make([]*trace.Trace, len(seeds))
	for i, seed := range seeds {
		per, err := trace.Standard(cfg.Group, level, seed)
		if err != nil {
			return nil, nil, err
		}
		_, tail := per.SplitAt(p.at)
		if comps[i], err = trace.Composite(fmt.Sprintf("%s/seed%d", base.Name, seed), p.head, tail); err != nil {
			return nil, nil, err
		}
	}
	return p, comps, nil
}

// seedRow condenses one cell's paired results into its headline reductions.
func seedRow(seed int64, base, vr *metrics.Result) SeedRow {
	return SeedRow{
		Seed:     seed,
		Exec:     metrics.Reduction(base.TotalExec.Seconds(), vr.TotalExec.Seconds()),
		Queue:    metrics.Reduction(base.TotalQueue.Seconds(), vr.TotalQueue.Seconds()),
		Slowdown: metrics.Reduction(base.MeanSlowdown, vr.MeanSlowdown),
	}
}

// WhatIf is one divergence applied to a running cluster at the warmup
// instant: swap the scheduling policy, retune the reservation cap, change
// the exchange period — any mid-run mutation the cluster supports.
type WhatIf struct {
	Name  string
	Apply func(c *cluster.Cluster) error
}

// StandardWhatIfs is the default divergence grid for the what-if ablation:
// mid-run policy swaps, reservation-cap changes, and exchange-period
// retunings, all diverging from the same warmed-up V-Reconfiguration run.
func StandardWhatIfs(cfg RunConfig) []WhatIf {
	mk := func(opts core.Options) func(c *cluster.Cluster) error {
		return func(c *cluster.Cluster) error {
			s, err := core.NewVReconfiguration(opts)
			if err != nil {
				return err
			}
			return c.SetScheduler(s)
		}
	}
	return []WhatIf{
		{Name: "keep-vr", Apply: func(*cluster.Cluster) error { return nil }},
		{Name: "swap-gls", Apply: func(c *cluster.Cluster) error { return c.SetScheduler(policy.NewGLoadSharing()) }},
		{Name: "swap-suspension", Apply: func(c *cluster.Cluster) error { return c.SetScheduler(policy.NewSuspension()) }},
		{Name: "swap-vr-early-fit", Apply: mk(core.Options{Rule: core.RuleEarlyFit})},
		{Name: "cap-1", Apply: mk(core.Options{Rule: core.RuleFullDrain, MaxReserved: 1})},
		{Name: "period-5s", Apply: func(c *cluster.Cluster) error { return c.SetControlPeriod(5 * time.Second) }},
	}
}

// WhatIfGrid runs one standard trace level under V-Reconfiguration up to
// the warmup instant, then continues under every divergence variant. With
// cfg.Fork the warmed-up state is simulated once per chunk and each
// variant forks from the snapshot; otherwise every variant is a fresh
// RunDiverged of the full trace. Both strategies are byte-identical.
func WhatIfGrid(cfg RunConfig, level int, whatIfs []WhatIf) ([]AblationResult, error) {
	if len(whatIfs) == 0 {
		return nil, errors.New("experiments: no what-if variants")
	}
	tr, err := cfg.standard(level)
	if err != nil {
		return nil, err
	}
	// The full trace is the head — all arrivals, warmup and tail alike —
	// so the warmed-up state is exactly a fresh run's state at the
	// divergence instant and no held-open clocks are needed.
	p := &prefix{head: tr, at: warmupInstant(level)}
	ccfg := cfg.clusterConfig()
	cells := make([]cell, len(whatIfs))
	for i, w := range whatIfs {
		named := *tr // each variant's result carries its own name
		named.Name = fmt.Sprintf("%s/%s", tr.Name, w.Name)
		cells[i] = cell{name: w.Name, trace: &named, cfg: ccfg,
			sched: vr(core.Options{Rule: cfg.Rule}), diverge: w.Apply, prefix: p}
	}
	return ablate(cfg, cells)
}
