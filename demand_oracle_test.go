// Policies read a resident job's memory demand through node.DemandAt, the
// value the node registered with its memory manager at its last tick or
// fold, instead of recomputing it from the job's phase profile. This
// oracle pins the two equal, bit for bit, for every resident of every
// workstation at every control period of the paper's run and of the
// operator configuration.
package vrcluster_test

import (
	"math"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/policy"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// demandOracle wraps a scheduler and compares every resident's registered
// demand with its profile demand before each OnControl.
type demandOracle struct {
	cluster.Scheduler
	t      *testing.T
	checks int
}

func (o *demandOracle) OnControl(c *cluster.Cluster, now time.Duration) {
	for _, n := range c.Nodes() {
		for i := 0; i < n.NumJobs(); i++ {
			got, want := n.DemandAt(i), n.JobAt(i).MemoryDemandMB()
			if math.Float64bits(got) != math.Float64bits(want) {
				o.t.Fatalf("%v node %d job %d: registered demand %v, profile demand %v",
					now, n.ID(), n.JobAt(i).ID, got, want)
			}
			o.checks++
		}
	}
	o.Scheduler.OnControl(c, now)
}

// TestDemandAtMatchesProfile runs the paper's App-Trace-2 on Cluster2 under
// G-Loadsharing and V-Reconfiguration at a 100 ms quantum, and the
// operator configuration of TestRefreshOracleChaos, at seeds 42 and 7.
func TestDemandAtMatchesProfile(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		tr, err := trace.Standard(workload.Group2, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		paper := cluster.Cluster2()
		paper.Quantum = 100 * time.Millisecond
		vr, err := core.NewVReconfiguration(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		runDemandOracle(t, paper, policy.NewGLoadSharing(), tr)
		runDemandOracle(t, paper, vr, tr)

		chaos, ctr := oracleChaos(t, seed)
		vr, err = core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		runDemandOracle(t, chaos, vr, ctr)
	}
}

func runDemandOracle(t *testing.T, cfg cluster.Config, sched cluster.Scheduler, tr *trace.Trace) {
	t.Helper()
	o := &demandOracle{Scheduler: sched, t: t}
	c, err := cluster.New(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(tr.Clone()); err != nil {
		t.Fatal(err)
	}
	if o.checks == 0 {
		t.Fatalf("%s under %T: no resident was ever checked", tr.Name, sched)
	}
}
