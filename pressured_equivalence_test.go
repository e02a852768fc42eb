// Pressure-saturated equivalence: the quantum fold (node.Fold, DESIGN.md
// §12) batches quanta on nodes whose paging stall feeds back into every
// tick's arithmetic. These tests drive workloads that keep most of the
// cluster over its memory threshold for most of the run — the regime the
// standard traces only touch in bursts — and require the batched runs to be
// byte-identical (metrics AND JSONL event traces) to forced-dense runs, and
// forked runs to fresh runs, including the Restore-then-batch pattern that
// would expose fold state leaking across a restore.
package vrcluster_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/metrics"
	"vrcluster/internal/obs"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

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

// runPressuredTraced executes one pressure-saturated run with an unbounded
// tracer installed and returns metrics plus the rendered JSONL trace.
func runPressuredTraced(t *testing.T, g workload.Group, vr, dense bool, seed int64) (*metrics.Result, []byte) {
	t.Helper()
	tr := pressuredTrace(t, g, pressuredJobs(g), seed)
	cfg := equivCluster(g)
	cfg.Quantum = equivQuantum
	cfg.DenseTicks = dense
	cfg.Obs = obs.NewTracer(0)
	c, err := cluster.New(cfg, forkSched(t, vr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res, traceJSONL(t, c.Tracer().Events())
}

// TestDenseVsBatchedEquivalencePressured pins the pressured fold: batched
// and forced-dense runs of a saturated cluster must agree byte-for-byte on
// metrics and event traces, under both policies and both workload groups.
// In -short mode (the CI smoke job) it runs the Group1/GLS cell only.
func TestDenseVsBatchedEquivalencePressured(t *testing.T) {
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		for _, vr := range []bool{false, true} {
			if testing.Short() && (g != workload.Group1 || vr) {
				continue
			}
			g, vr := g, vr
			t.Run(fmt.Sprintf("group%d/vr=%v", g, vr), func(t *testing.T) {
				t.Parallel()
				denseRes, denseEv := runPressuredTraced(t, g, vr, true, 1)
				batchRes, batchEv := runPressuredTraced(t, g, vr, false, 1)
				if !reflect.DeepEqual(denseRes, batchRes) {
					t.Fatalf("pressured dense and batched results differ:\ndense:   %+v\nbatched: %+v", denseRes, batchRes)
				}
				if string(denseEv) != string(batchEv) {
					a, aerr := obs.ReadJSONL(bytes.NewReader(denseEv))
					b, berr := obs.ReadJSONL(bytes.NewReader(batchEv))
					if aerr != nil || berr != nil {
						t.Fatalf("pressured dense and batched JSONL traces differ (%d vs %d bytes; reparse: %v %v)",
							len(denseEv), len(batchEv), aerr, berr)
					}
					reportTraceDivergence(t, "dense", "batched", a, b)
				}
			})
		}
	}
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
