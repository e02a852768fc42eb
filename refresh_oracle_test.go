// The load board's refresh re-reads only the workstations whose status
// version moved (loadinfo.Board.RefreshWith). This oracle checks the board
// it leaves behind against the full refresh it replaces, at every control
// period of the operator configuration: every entry whose exchange was not
// dropped equals a fresh LoadStatus of its node, field by field, stamped
// with the period's instant, and every dropped entry holds exactly what it
// held before the refresh. A mutator that forgot to bump the version
// shows up here as a stale entry.
package vrcluster_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/faults"
	"vrcluster/internal/job"
	"vrcluster/internal/loadinfo"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// refreshOracle wraps a scheduler and checks the board at each OnControl,
// which the cluster calls straight after the refresh. The board as it
// stood before the refresh at instant T is recorded by an event the
// oracle schedules two periods ahead: that event precedes the control
// tick at T, whose timer the tick at T-period arms later. A scheduler
// callback between the record and the tick may write the board, so it
// taints the record, and that period's dropped entries go unchecked.
type refreshOracle struct {
	cluster.Scheduler
	t      *testing.T
	period time.Duration

	pre   map[time.Duration][]loadinfo.Entry
	taint map[time.Duration]bool

	fresh, dropped, tainted int
}

func newRefreshOracle(t *testing.T, inner cluster.Scheduler, period time.Duration) *refreshOracle {
	return &refreshOracle{Scheduler: inner, t: t, period: period,
		pre: make(map[time.Duration][]loadinfo.Entry), taint: make(map[time.Duration]bool)}
}

// arm schedules the records for the first two control instants; call it
// before Start arms the control ticker.
func (o *refreshOracle) arm(c *cluster.Cluster) {
	o.recordAt(c, o.period)
	o.recordAt(c, 2*o.period)
}

func (o *refreshOracle) recordAt(c *cluster.Cluster, at time.Duration) {
	if _, err := c.Engine().Schedule(at, func() {
		o.pre[at] = c.Board().Entries()
		delete(o.taint, at)
	}); err != nil {
		o.t.Fatal(err)
	}
}

// touch taints the record of the current instant when a scheduler
// callback runs between it and the control tick.
func (o *refreshOracle) touch(c *cluster.Cluster) {
	if now := c.Engine().Now(); o.pre[now] != nil {
		o.taint[now] = true
	}
}

func (o *refreshOracle) Place(c *cluster.Cluster, j *job.Job, home int) (int, bool, bool) {
	o.touch(c)
	return o.Scheduler.Place(c, j, home)
}

func (o *refreshOracle) OnJobDone(c *cluster.Cluster, n *node.Node, j *job.Job) {
	o.touch(c)
	o.Scheduler.OnJobDone(c, n, j)
}

func (o *refreshOracle) OnControl(c *cluster.Cluster, now time.Duration) {
	o.check(c, now)
	o.recordAt(c, now+2*o.period)
	o.Scheduler.OnControl(c, now)
}

func (o *refreshOracle) check(c *cluster.Cluster, now time.Duration) {
	o.t.Helper()
	pre, tainted := o.pre[now], o.taint[now]
	delete(o.pre, now)
	delete(o.taint, now)
	inj := c.Injector()
	for id, n := range c.Nodes() {
		got, err := c.Board().Entry(id)
		if err != nil {
			o.t.Fatal(err)
		}
		if inj != nil && inj.Dropped(id) {
			switch {
			case pre == nil:
				o.t.Fatalf("%v: no record of the board before the refresh", now)
			case tainted:
				o.tainted++
			case got != pre[id]:
				o.t.Fatalf("%v node %d: dropped entry changed by the refresh\n got %+v\nwant %+v", now, id, got, pre[id])
			default:
				o.dropped++
			}
			continue
		}
		if want := statusEntry(n.LoadStatus(), now); got != want {
			o.t.Fatalf("%v node %d: refreshed entry differs from LoadStatus\n got %+v\nwant %+v", now, id, got, want)
		}
		o.fresh++
	}
}

// statusEntry is the entry a full refresh at now writes for st.
func statusEntry(st node.LoadStatus, now time.Duration) loadinfo.Entry {
	return loadinfo.Entry{
		NodeID: st.NodeID, Jobs: st.Jobs, Slots: st.Slots, IdleMB: st.IdleMB, UserMB: st.UserMB,
		Pressured: st.Pressured, Reserved: st.Reserved, Down: st.Down, Draining: st.Draining,
		Removed: st.Removed, HasSlot: st.HasSlot, FaultRate: st.FaultRate,
		IOActiveJobs: st.IOActiveJobs, CacheAvailability: st.CacheAvailability, UpdatedAt: now,
	}
}

// SnapshotState and RestoreState forward the wrapped policy's fork state.
func (o *refreshOracle) SnapshotState() any {
	return o.Scheduler.(interface{ SnapshotState() any }).SnapshotState()
}

func (o *refreshOracle) RestoreState(s any) {
	o.Scheduler.(interface{ RestoreState(any) }).RestoreState(s)
}

// oracleChaos is the benchmark's chaos workload at seed — 128 nodes
// running 256 generated jobs over a shared network, with the auditor and
// every fault dimension on — plus a join-and-drain membership script.
// Its jobs never block, so it makes no reservation.
func oracleChaos(t *testing.T, seed int64) (cluster.Config, *trace.Trace) {
	t.Helper()
	const nodes = 128
	tr, err := trace.Generate(trace.Config{
		Name: "oracle-chaos", Group: workload.Group1, Sigma: 3, Mu: 3, Jobs: 256,
		Duration: 1800 * time.Second, Nodes: nodes, Seed: seed, Jitter: workload.DefaultJitter,
	})
	if err != nil {
		t.Fatal(err)
	}
	return oracleConfig(cluster.Homogeneous(nodes, cluster.Cluster1().Nodes[0]), seed, 3*time.Hour), tr
}

// oracleBlocking runs the same configuration on the paper's App-Trace-2
// over Cluster2, where jobs block and V-Reconfiguration reserves
// workstations, with domain crash waves three times as frequent.
func oracleBlocking(t *testing.T, seed int64) (cluster.Config, *trace.Trace) {
	t.Helper()
	tr, err := trace.Standard(workload.Group2, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return oracleConfig(cluster.Cluster2(), seed, time.Hour), tr
}

// oracleConfig puts the chaos workload's settings on cfg: a 100 ms
// quantum, the shared network, the auditor, the fault plan at seed with
// domain waves every domainMTBF, and a script that joins a node at 5 min
// and drains node 3 at 12 min and the joined node at 20 min.
func oracleConfig(cfg cluster.Config, seed int64, domainMTBF time.Duration) cluster.Config {
	cfg.Quantum = 100 * time.Millisecond
	cfg.SharedNetwork = true
	cfg.Audit = true
	cfg.Faults = faults.Plan{
		Seed: seed, Crash: faults.Requeue, MTBF: 2 * time.Hour,
		DropRate: 0.05, AbortRate: 0.1, Domains: 8,
		DomainMTBF: domainMTBF, PartitionMTBF: 2 * time.Hour,
	}
	cfg.Membership = []cluster.MembershipEvent{
		{At: 5 * time.Minute, Kind: cluster.MemberJoin, Node: cfg.Nodes[0]},
		{At: 12 * time.Minute, Kind: cluster.MemberDrain, ID: 3},
		{At: 20 * time.Minute, Kind: cluster.MemberDrain, ID: len(cfg.Nodes)},
	}
	cfg.Obs = obs.NewTracer(0)
	return cfg
}

// oracleCoverage counts what the oracle's runs exercised.
type oracleCoverage struct {
	fresh, dropped, tainted, partitions, outages, reservations, joins, drains int
}

// TestRefreshOracleChaos runs the oracle over both configurations at seeds
// 42 and 7, forking each run at a drawn instant: the continuation runs
// twice from the snapshot, and the two results must agree. Each seed's
// pair of runs must check dropped entries and see partitions, domain
// crash waves, reservations, joins and drains.
func TestRefreshOracleChaos(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		var cov oracleCoverage
		for _, build := range []func(*testing.T, int64) (cluster.Config, *trace.Trace){oracleChaos, oracleBlocking} {
			cfg, tr := build(t, seed)
			runRefreshOracle(t, cfg, tr, seed, &cov)
		}
		t.Logf("seed %d: %+v", seed, cov)
		if cov.dropped == 0 || cov.partitions == 0 || cov.outages == 0 || cov.reservations == 0 ||
			cov.joins == 0 || cov.drains == 0 {
			t.Errorf("seed %d left a dimension of the oracle unexercised: %+v", seed, cov)
		}
	}
}

func runRefreshOracle(t *testing.T, cfg cluster.Config, tr *trace.Trace, seed int64, cov *oracleCoverage) {
	t.Helper()
	vr, err := core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	o := newRefreshOracle(t, vr, cluster.DefaultControlPeriod)
	c, err := cluster.New(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	o.arm(c)
	if err := c.Start(tr); err != nil {
		t.Fatal(err)
	}
	at := time.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(tr.Duration())))
	if err := c.RunToDivergence(at); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Finish(tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range c.Tracer().Events() {
		if ev.Kind == obs.KindDomainOutage {
			if ev.Flags&obs.FlagPartition != 0 {
				cov.partitions++
			} else {
				cov.outages++
			}
		}
	}
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	second, err := c.Finish(tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("%s seed %d: the two continuations from %v differ", tr.Name, seed, at)
	}
	cov.fresh += o.fresh
	cov.dropped += o.dropped
	cov.tainted += o.tainted
	cov.reservations += first.Reservations
	cov.joins += first.NodesJoined
	cov.drains += first.NodesDrained
}
