// Fork-vs-fresh equivalence: a run forked from a warmup snapshot must be
// byte-identical — metrics.Result and structured event trace — to a fresh
// run of the same composite workload. This is the correctness contract of
// the snapshot/fork layer (DESIGN.md §11): the seed-sensitivity and
// ablation grids share one simulated warmup prefix across cells, so any
// divergence between the forked and fresh execution would silently corrupt
// every published number.
package vrcluster_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/faults"
	"vrcluster/internal/metrics"
	"vrcluster/internal/obs"
	"vrcluster/internal/policy"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// equivQuantum matches the benchmark quantum: coarse enough to keep the
// forced-dense runs fast, while still firing thousands of ticks per run.
const equivQuantum = 100 * time.Millisecond

func equivCluster(g workload.Group) cluster.Config {
	if g == workload.Group2 {
		return cluster.Cluster2()
	}
	return cluster.Cluster1()
}

// forkSched builds a fresh scheduler instance for one run.
func forkSched(t *testing.T, vr bool) cluster.Scheduler {
	t.Helper()
	if !vr {
		return policy.NewGLoadSharing()
	}
	s, err := core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// forkComposite builds the composite workload of one seed-sensitivity
// cell: the warmup prefix of the base-seed trace joined with the tail of
// the per-seed trace, split at frac of the submission window.
func forkComposite(t *testing.T, g workload.Group, level int, baseSeed, tailSeed int64, frac float64) (comp, head *trace.Trace, at time.Duration) {
	t.Helper()
	base, err := trace.Standard(g, level, baseSeed)
	if err != nil {
		t.Fatal(err)
	}
	per, err := trace.Standard(g, level, tailSeed)
	if err != nil {
		t.Fatal(err)
	}
	at = time.Duration(frac * float64(base.Duration()))
	head, _ = base.SplitAt(at)
	_, tail := per.SplitAt(at)
	comp, err = trace.Composite(fmt.Sprintf("%s/seed%d", base.Name, tailSeed), head, tail)
	if err != nil {
		t.Fatal(err)
	}
	return comp, head, at
}

// freshForkRun executes the composite from scratch.
func freshForkRun(t *testing.T, cfg cluster.Config, vr bool, comp *trace.Trace) (*metrics.Result, []obs.Event) {
	t.Helper()
	cfg.Obs = obs.NewTracer(0)
	c, err := cluster.New(cfg, forkSched(t, vr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(comp)
	if err != nil {
		t.Fatal(err)
	}
	return res, c.Tracer().Events()
}

// forkedRun executes the warmup prefix once, snapshots at the divergence
// instant, and finishes the composite from the restored state — twice, to
// prove the snapshot survives reuse.
func forkedRun(t *testing.T, cfg cluster.Config, vr bool, comp, head *trace.Trace, at time.Duration) (*metrics.Result, []obs.Event) {
	t.Helper()
	cfg.Obs = obs.NewTracer(0)
	c, err := cluster.New(cfg, forkSched(t, vr))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(head); err != nil {
		t.Fatal(err)
	}
	c.HoldOpen(true)
	if err := c.RunToDivergence(at); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cut := len(head.Items)
	var res *metrics.Result
	var events []obs.Event
	for fork := 0; fork < 2; fork++ {
		if err := c.Restore(snap); err != nil {
			t.Fatal(err)
		}
		tailJobs, err := comp.JobsFrom(cut)
		if err != nil {
			t.Fatal(err)
		}
		homes := make([]int, len(tailJobs))
		for i, it := range comp.Items[cut:] {
			homes[i] = it.Home
		}
		if err := c.InjectArrivals(tailJobs, homes); err != nil {
			t.Fatal(err)
		}
		r, err := c.Finish(comp.Name)
		if err != nil {
			t.Fatal(err)
		}
		evs := append([]obs.Event(nil), c.Tracer().Events()...)
		if fork > 0 && !reflect.DeepEqual(res, r) {
			t.Fatalf("re-forked run differs from first fork:\nfirst: %+v\nsecond: %+v", res, r)
		}
		res, events = r, evs
	}
	return res, events
}

// compareForkFresh requires byte-identical results and event traces; a
// trace mismatch fails with the structured divergence report.
func compareForkFresh(t *testing.T, fresh, forked *metrics.Result, freshEv, forkedEv []obs.Event) {
	t.Helper()
	if !reflect.DeepEqual(fresh, forked) {
		t.Fatalf("forked result differs from fresh:\nfresh:  %+v\nforked: %+v", fresh, forked)
	}
	fj, kj := traceJSONL(t, freshEv), traceJSONL(t, forkedEv)
	if string(fj) != string(kj) {
		reportTraceDivergence(t, "fresh", "forked", freshEv, forkedEv)
	}
}

// TestForkVsFreshEquivalence covers all five levels under both policies.
func TestForkVsFreshEquivalence(t *testing.T) {
	for level := 1; level <= len(trace.Levels); level++ {
		if testing.Short() && level > 2 {
			continue
		}
		for _, vr := range []bool{false, true} {
			level, vr := level, vr
			t.Run(fmt.Sprintf("level%d/vr=%v", level, vr), func(t *testing.T) {
				t.Parallel()
				comp, head, at := forkComposite(t, workload.Group1, level, 1, 99, 0.5)
				if len(comp.Items) == len(head.Items) {
					t.Skip("empty tail: fork driver falls back to a fresh run")
				}
				cfg := equivCluster(workload.Group1)
				cfg.Quantum = equivQuantum
				fresh, freshEv := freshForkRun(t, cfg, vr, comp)
				forked, forkedEv := forkedRun(t, cfg, vr, comp, head, at)
				compareForkFresh(t, fresh, forked, freshEv, forkedEv)
			})
		}
	}
}

// TestForkTraceExportsDoNotInterleave pins the tracer's fork isolation:
// the event slice exported after one fork must serialize to the same
// bytes before and after the next fork runs from the same snapshot. If a
// snapshot or restore ever shared the live ring buffer's backing array by
// reference, the second fork's emissions would overwrite the first fork's
// exported events and the two JSONL exports would interleave.
func TestForkTraceExportsDoNotInterleave(t *testing.T) {
	comp, head, at := forkComposite(t, workload.Group1, 1, 1, 99, 0.5)
	if len(comp.Items) == len(head.Items) {
		t.Skip("empty tail")
	}
	cfg := equivCluster(workload.Group1)
	cfg.Quantum = equivQuantum
	cfg.Obs = obs.NewTracer(0)
	c, err := cluster.New(cfg, forkSched(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(head); err != nil {
		t.Fatal(err)
	}
	c.HoldOpen(true)
	if err := c.RunToDivergence(at); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cut := len(head.Items)
	runFork := func() []obs.Event {
		if err := c.Restore(snap); err != nil {
			t.Fatal(err)
		}
		tailJobs, err := comp.JobsFrom(cut)
		if err != nil {
			t.Fatal(err)
		}
		homes := make([]int, len(tailJobs))
		for i, it := range comp.Items[cut:] {
			homes[i] = it.Home
		}
		if err := c.InjectArrivals(tailJobs, homes); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Finish(comp.Name); err != nil {
			t.Fatal(err)
		}
		return c.Tracer().Events() // deliberately NOT copied: aliasing is the bug under test
	}

	ev1 := runFork()
	before := traceJSONL(t, ev1)
	ev2 := runFork()
	after := traceJSONL(t, ev1)
	if string(before) != string(after) {
		t.Fatal("first fork's exported trace changed while the second fork ran: sink buffers are shared by reference")
	}
	if string(traceJSONL(t, ev2)) != string(before) {
		t.Fatal("second fork's trace differs from the first despite identical snapshot and tail")
	}
}

// TestForkVsFreshEquivalenceChaos repeats the check with every fault
// dimension enabled (crashes with requeue, correlated failure domains with
// crash waves and partitions, dropped refreshes, aborted migrations), a
// membership churn script, the shared-network link, and the runtime
// auditor — the full chaos surface the snapshot must capture. At the plan
// seed, domain 1 is partitioned from 24m50s to 1h0m45s, across the fork
// instant, so the snapshot carries frozen drop runs as well as queued
// ones, the calendar and the period counter.
func TestForkVsFreshEquivalenceChaos(t *testing.T) {
	plan := faults.Plan{
		Seed:          38,
		MTBF:          15 * time.Minute,
		Crash:         faults.Requeue,
		DropRate:      0.1,
		AbortRate:     0.2,
		Domains:       4,
		DomainMTBF:    2 * time.Hour,
		PartitionMTBF: 4 * time.Hour,
		PartitionMTTR: 20 * time.Minute,
	}
	for _, vr := range []bool{false, true} {
		vr := vr
		t.Run(fmt.Sprintf("vr=%v", vr), func(t *testing.T) {
			t.Parallel()
			comp, head, at := forkComposite(t, workload.Group1, 2, 1, 21, 0.5)
			if len(comp.Items) == len(head.Items) {
				t.Skip("empty tail")
			}
			cfg := equivCluster(workload.Group1)
			cfg.Quantum = equivQuantum
			cfg.Faults = plan
			cfg.SharedNetwork = true
			cfg.Audit = true
			cfg.Membership = []cluster.MembershipEvent{
				{At: 10 * time.Minute, Kind: cluster.MemberJoin, Node: cfg.Nodes[0]},
				{At: 20 * time.Minute, Kind: cluster.MemberDrain, ID: 3},
				{At: 40 * time.Minute, Kind: cluster.MemberJoin, Node: cfg.Nodes[1]},
			}
			fresh, freshEv := freshForkRun(t, cfg, vr, comp)
			if !partitionLive(freshEv, at) {
				t.Fatalf("no partition live at the fork instant %v", at)
			}
			forked, forkedEv := forkedRun(t, cfg, vr, comp, head, at)
			compareForkFresh(t, fresh, forked, freshEv, forkedEv)
		})
	}
}

// partitionLive reports whether a run's trace has a domain partitioned at
// instant at: its partition opened before at and had not healed by then.
func partitionLive(evs []obs.Event, at time.Duration) bool {
	open := map[int32]bool{}
	for _, ev := range evs {
		if ev.At >= at {
			break
		}
		if ev.Flags&obs.FlagPartition == 0 {
			continue
		}
		switch ev.Kind {
		case obs.KindDomainOutage:
			open[ev.Aux] = true
		case obs.KindDomainRestore:
			delete(open, ev.Aux)
		}
	}
	return len(open) > 0
}

// pressuredTrace builds a pressure-saturated trace: the job mix is
// restricted to the group's largest working sets (for Group2 including the
// I/O-active renderers, so the cache-miss stall term rides the pressured
// fold too), with enough jobs per node that demand sits above user memory
// for most of the run.
func pressuredTrace(t *testing.T, g workload.Group, jobs int, seed int64) *trace.Trace {
	t.Helper()
	programs := []string{"apsi", "mcf"}
	if g == workload.Group2 {
		programs = []string{"metis", "r-wing", "r-sphere"}
	}
	tr, err := trace.Generate(trace.Config{
		Name:     fmt.Sprintf("pressured-g%d-s%d", g, seed),
		Group:    g,
		Sigma:    2,
		Mu:       2,
		Jobs:     jobs,
		Duration: 5 * time.Minute,
		Nodes:    32,
		Seed:     seed,
		Programs: programs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// pressuredJobs is sized for ~3 resident jobs per workstation at the
// saturation peak — comfortably past both clusters' user memory.
func pressuredJobs(g workload.Group) int {
	if g == workload.Group2 {
		return 128
	}
	return 96
}

// TestForkVsFreshEquivalencePressured forks a saturated run at half the
// submission window and requires the forked completion — which Restores
// into nodes whose fold scratch was last used by the warmup — to match a
// fresh run byte-for-byte. forkedRun re-forks from the same snapshot
// twice, so anything fork one leaves behind in a node must not reach fork
// two; any such leak shows up as a metrics or trace divergence here.
func TestForkVsFreshEquivalencePressured(t *testing.T) {
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		for _, vr := range []bool{false, true} {
			if testing.Short() && (g != workload.Group1 || vr) {
				continue
			}
			g, vr := g, vr
			t.Run(fmt.Sprintf("group%d/vr=%v", g, vr), func(t *testing.T) {
				t.Parallel()
				base := pressuredTrace(t, g, pressuredJobs(g), 1)
				per := pressuredTrace(t, g, pressuredJobs(g), 7)
				at := time.Duration(0.5 * float64(base.Duration()))
				head, _ := base.SplitAt(at)
				_, tail := per.SplitAt(at)
				comp, err := trace.Composite(base.Name+"/fork", head, tail)
				if err != nil {
					t.Fatal(err)
				}
				cfg := equivCluster(g)
				cfg.Quantum = equivQuantum
				freshRes, freshEv := freshForkRun(t, cfg, vr, comp)
				forkRes, forkEv := forkedRun(t, cfg, vr, comp, head, at)
				compareForkFresh(t, freshRes, forkRes, freshEv, forkEv)
			})
		}
	}
}
