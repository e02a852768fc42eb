// Dense-vs-elided equivalence: the idle-tick elision in cluster.Run is a
// pure performance transformation, so running the same seeded trace on the
// dense-tick oracle (UseDenseTicks) and on the production clock must
// produce byte-identical metrics.Results. This is the determinism contract
// of DESIGN.md §7, checked over all five standard traces of both workload
// groups and under fault injection.
package cluster_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
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

// equivSched builds a fresh scheduler instance for one run:
// V-Reconfiguration with a 30 s lease, or G-Loadsharing.
func equivSched(t *testing.T, vr bool) cluster.Scheduler {
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

// traceJSONL renders events to the wire format used by vrsim -trace.
func traceJSONL(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reportTraceDivergence fails the test with the structured first-divergence
// report (the same rendering cmd/vrdiff produces) instead of a raw byte
// offset.
func reportTraceDivergence(t *testing.T, aName, bName string, a, b []obs.Event) {
	t.Helper()
	var sb strings.Builder
	if _, err := obs.WriteDiffReport(&sb, aName, bName, a, b, 3); err != nil {
		t.Fatalf("diff report: %v", err)
	}
	t.Fatal("\n" + sb.String())
}

// runStandard executes one standard trace level, on the dense-tick oracle
// or the production clock, and returns its result.
func runStandard(t *testing.T, g workload.Group, level int, vr bool, dense bool, plan faults.Plan) *metrics.Result {
	t.Helper()
	tr, err := trace.Standard(g, level, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := equivSched(t, vr)
	cfg := equivCluster(g)
	cfg.Quantum = equivQuantum
	cfg.Faults = plan
	c, err := cluster.New(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if dense {
		cluster.UseDenseTicks(c)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDenseVsElidedEquivalence runs every standard trace of both workload
// groups through the dense-tick oracle and the activity-proportional
// fast path under both policies, requiring identical results.
func TestDenseVsElidedEquivalence(t *testing.T) {
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		for level := 1; level <= len(trace.Levels); level++ {
			if testing.Short() && level > 2 {
				continue
			}
			for _, vr := range []bool{false, true} {
				g, level, vr := g, level, vr
				name := fmt.Sprintf("group%d/level%d/vr=%v", g, level, vr)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					dense := runStandard(t, g, level, vr, true, faults.Plan{})
					elided := runStandard(t, g, level, vr, false, faults.Plan{})
					if !reflect.DeepEqual(dense, elided) {
						t.Fatalf("dense and elided results differ:\ndense:  %+v\nelided: %+v", dense, elided)
					}
				})
			}
		}
	}
}

// TestDenseVsElidedEquivalenceFaults repeats the check with every fault
// dimension enabled: crashes (requeue policy), dropped refreshes, and
// aborted migrations all ride the same event queue, so elision must not
// reorder them either.
func TestDenseVsElidedEquivalenceFaults(t *testing.T) {
	plan := faults.Plan{
		MTBF:      20 * time.Minute,
		Crash:     faults.Requeue,
		DropRate:  0.1,
		AbortRate: 0.2,
	}
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		g := g
		t.Run(fmt.Sprintf("group%d", g), func(t *testing.T) {
			t.Parallel()
			dense := runStandard(t, g, 1, true, true, plan)
			elided := runStandard(t, g, 1, true, false, plan)
			if !reflect.DeepEqual(dense, elided) {
				t.Fatalf("dense and elided results differ under faults:\ndense:  %+v\nelided: %+v", dense, elided)
			}
		})
	}
}
