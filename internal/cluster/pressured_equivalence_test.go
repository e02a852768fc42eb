// Pressure-saturated equivalence: the quantum fold (node.Fold, DESIGN.md
// §12) batches quanta on nodes whose paging stall feeds back into every
// tick's arithmetic. These tests drive workloads that keep most of the
// cluster over its memory threshold for most of the run — the regime the
// standard traces only touch in bursts — and require the batched runs to be
// byte-identical (metrics AND JSONL event traces) to runs on the dense-tick
// oracle (UseDenseTicks).
package cluster_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
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
	cfg.Obs = obs.NewTracer(0)
	c, err := cluster.New(cfg, equivSched(t, vr))
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
	return res, traceJSONL(t, c.Tracer().Events())
}

// requireDenseBatchedEqual fails unless a dense-oracle and a batched run
// left byte-identical metrics and JSONL event traces, reporting where the
// traces first diverge.
func requireDenseBatchedEqual(t *testing.T, denseRes, batchRes *metrics.Result, denseEv, batchEv []byte) {
	t.Helper()
	if !reflect.DeepEqual(denseRes, batchRes) {
		t.Fatalf("dense and batched results differ:\ndense:   %+v\nbatched: %+v", denseRes, batchRes)
	}
	if string(denseEv) != string(batchEv) {
		a, aerr := obs.ReadJSONL(bytes.NewReader(denseEv))
		b, berr := obs.ReadJSONL(bytes.NewReader(batchEv))
		if aerr != nil || berr != nil {
			t.Fatalf("dense and batched JSONL traces differ (%d vs %d bytes; reparse: %v %v)",
				len(denseEv), len(batchEv), aerr, berr)
		}
		reportTraceDivergence(t, "dense", "batched", a, b)
	}
}

// TestDenseVsBatchedEquivalencePressured pins the pressured fold: batched
// and dense-oracle runs of a saturated cluster must agree byte-for-byte on
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
				requireDenseBatchedEqual(t, denseRes, batchRes, denseEv, batchEv)
			})
		}
	}
}

// TestDenseVsBatchedEquivalenceRampRuns pins the fold's ramp runs on the
// benchmark's pressured mix: apsi, mcf, gzip and bzip on Cluster1 at a 10 ms
// quantum under V-Reconfiguration. Most of its folded quanta start below
// user memory, where ramping jobs step their demand in runs that stop at
// the first tick whose total would leave [0, user]; batched and
// dense-oracle runs must agree byte-for-byte on metrics and event traces.
// In -short mode it runs seed 42 only.
func TestDenseVsBatchedEquivalenceRampRuns(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		if testing.Short() && seed != 42 {
			continue
		}
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tr, err := trace.Generate(trace.Config{
				Name:     "ramp-runs",
				Group:    workload.Group1,
				Sigma:    2,
				Mu:       2,
				Jobs:     96,
				Duration: 5 * time.Minute,
				Nodes:    32,
				Seed:     seed,
				Programs: []string{"apsi", "mcf", "gzip", "bzip"},
			})
			if err != nil {
				t.Fatal(err)
			}
			run := func(dense bool) (*metrics.Result, []byte) {
				sched, err := core.NewVReconfiguration(core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				cfg := cluster.Cluster1()
				cfg.Quantum = 10 * time.Millisecond
				cfg.Obs = obs.NewTracer(0)
				c, err := cluster.New(cfg, sched)
				if err != nil {
					t.Fatal(err)
				}
				if dense {
					cluster.UseDenseTicks(c)
				}
				res, err := c.Run(tr.Clone())
				if err != nil {
					t.Fatal(err)
				}
				return res, traceJSONL(t, c.Tracer().Events())
			}
			denseRes, denseEv := run(true)
			batchRes, batchEv := run(false)
			requireDenseBatchedEqual(t, denseRes, batchRes, denseEv, batchEv)
		})
	}
}
