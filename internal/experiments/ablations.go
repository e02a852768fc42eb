package experiments

import (
	"fmt"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/metrics"
	"vrcluster/internal/node"
	"vrcluster/internal/policy"
	"vrcluster/internal/trace"
)

// AblationResult is one variant's outcome in a design-choice study.
type AblationResult struct {
	Variant string
	Result  *metrics.Result
}

// AblationRules compares every policy variant on one trace: no sharing,
// CPU-only sharing, the G-Loadsharing baseline, job suspension, and both
// reserving-period rules of the virtual reconfiguration — covering the
// design alternatives of Sections 1 and 2.1.
func AblationRules(cfg RunConfig, level int) ([]AblationResult, error) {
	tr, err := cfg.standard(level)
	if err != nil {
		return nil, err
	}
	cells := []cell{
		{name: "no-sharing", sched: func() (cluster.Scheduler, error) { return policy.NoSharing{}, nil }},
		{name: "cpu-sharing", sched: func() (cluster.Scheduler, error) { return policy.CPUSharing{}, nil }},
		{name: "g-loadsharing", sched: gls},
		{name: "suspension", sched: func() (cluster.Scheduler, error) { return policy.NewSuspension(), nil }},
		{name: "vr-full-drain", sched: vr(core.Options{Rule: core.RuleFullDrain})},
		{name: "vr-early-fit", sched: vr(core.Options{Rule: core.RuleEarlyFit})},
	}
	ccfg := cfg.clusterConfig()
	for i := range cells {
		cells[i].trace, cells[i].cfg = tr, ccfg
	}
	return ablate(cfg, cells)
}

// AblationReservationCap sweeps the maximum number of simultaneously
// reserved workstations — the fairness dial of Section 2.2.
func AblationReservationCap(cfg RunConfig, level int, caps []int) ([]AblationResult, error) {
	tr, err := cfg.standard(level)
	if err != nil {
		return nil, err
	}
	ccfg := cfg.clusterConfig()
	cells := make([]cell, len(caps))
	for i, cap := range caps {
		cells[i] = cell{name: fmt.Sprintf("max-reserved=%d", cap), trace: tr, cfg: ccfg,
			sched: vr(core.Options{Rule: cfg.Rule, MaxReserved: cap})}
	}
	return ablate(cfg, cells)
}

// AblationExchangePeriod sweeps the load-information collection and
// distribution period — the timeliness/consistency concern the paper's
// conclusion raises.
func AblationExchangePeriod(cfg RunConfig, level int, periods []time.Duration) ([]AblationResult, error) {
	tr, err := cfg.standard(level)
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(periods))
	for i, p := range periods {
		cells[i] = cell{name: fmt.Sprintf("exchange=%v", p), trace: tr, cfg: cfg.clusterConfig(),
			sched: vr(core.Options{Rule: cfg.Rule})}
		cells[i].cfg.ControlPeriod = p
	}
	return ablate(cfg, cells)
}

// AblationBigJobs runs a big-job-dominant workload (only the two largest
// growers of group 1), the case Section 2.3 predicts virtual
// reconfiguration may not handle well: with big jobs dominant, reserving
// workstations squeezes normal jobs. It returns the baseline and
// reconfigured results on that workload.
func AblationBigJobs(cfg RunConfig, level int) ([]AblationResult, error) {
	tr, err := cfg.generated(level, "BigJobs-Trace", []string{"apsi", "mcf"})
	if err != nil {
		return nil, err
	}
	return ablate(cfg, pair(cfg, tr, cfg.clusterConfig()))
}

// AblationSharedNetwork compares migrations over dedicated links with
// migrations contending for the single shared Ethernet segment the
// paper's clusters actually use.
func AblationSharedNetwork(cfg RunConfig, level int) ([]AblationResult, error) {
	tr, err := cfg.standard(level)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, suffix := range []string{"dedicated", "shared"} {
		ccfg := cfg.clusterConfig()
		ccfg.SharedNetwork = suffix == "shared"
		p := pair(cfg, tr, ccfg)
		p[0].name, p[1].name = "gls/"+suffix, "vr/"+suffix
		cells = append(cells, p...)
	}
	return ablate(cfg, cells)
}

// AblationNetworkRAM exercises the Section 2.3 escape hatch for jobs whose
// memory demand exceeds any single workstation: "this job may not be
// suitable in this cluster unless the network RAM technique is applied".
// A workload of oversized apsi instances (420 MB working sets on 384 MB
// workstations) is run under V-Reconfiguration with disk-backed reserved
// service and with network-RAM-backed reserved service.
func AblationNetworkRAM(cfg RunConfig, level int) ([]AblationResult, error) {
	tr, err := cfg.generated(level, "Oversized-Trace", nil)
	if err != nil {
		return nil, err
	}
	// Inflate one program in twenty past any workstation's memory.
	for i := range tr.Items {
		if i%20 == 0 && tr.Items[i].Program == "apsi" {
			tr.Items[i].WorkingSetMB = 420
		}
	}
	ccfg := cfg.clusterConfig()
	return ablate(cfg, []cell{
		{name: "vr-disk-paging", trace: tr, cfg: ccfg, sched: vr(core.Options{Rule: cfg.Rule})},
		{name: "vr-network-ram", trace: tr, cfg: ccfg, sched: vr(core.Options{Rule: cfg.Rule, NetworkRAM: true})},
	})
}

// AblationHeterogeneous runs one trace on a heterogeneous cluster mixing
// large-memory and small-memory workstations (Section 2.3: "In a
// heterogeneous cluster system, a reserved workstation will be the one
// with relatively large physical memory space").
func AblationHeterogeneous(cfg RunConfig, level int) ([]AblationResult, error) {
	tr, err := cfg.standard(level)
	if err != nil {
		return nil, err
	}
	base := cfg.clusterConfig()
	protos := base.Nodes[:1]
	big := protos[0]
	big.Memory.CapacityMB *= 1.5
	big.CPUSpeedMHz *= 1.25
	small := protos[0]
	small.Memory.CapacityMB *= 0.75
	het := cluster.Heterogeneous(len(base.Nodes), []node.Config{big, protos[0], small, protos[0]}, protos[0].CPUSpeedMHz)
	het.Quantum = cfg.Quantum
	return ablate(cfg, pair(cfg, tr, het))
}

// pair is the paired comparison of one trace on one cluster: the
// G-Loadsharing baseline and V-Reconfiguration under cfg.Rule.
func pair(cfg RunConfig, tr *trace.Trace, ccfg cluster.Config) []cell {
	return []cell{
		{name: "g-loadsharing", trace: tr, cfg: ccfg, sched: gls},
		{name: "v-reconfiguration", trace: tr, cfg: ccfg, sched: vr(core.Options{Rule: cfg.Rule})},
	}
}
