package cluster_test

import (
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/faults"
	"vrcluster/internal/memory"
	"vrcluster/internal/node"
	"vrcluster/internal/policy"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// testProto is the node template used for runtime joins in these tests.
func testProto(memMB float64, slots int) node.Config {
	return node.Config{
		CPUSpeedMHz:  400,
		CPUThreshold: slots,
		Memory:       memory.Config{CapacityMB: memMB, UserFraction: 1},
	}
}

// TestMembershipJoinDrainRemove scripts a join and a graceful drain: the
// drained workstation's resident job migrates out, the workstation retires
// once empty, and the auditor checks every control period.
func TestMembershipJoinDrainRemove(t *testing.T) {
	cfg := smallCluster(2, 200, 4)
	cfg.Audit = true
	cfg.Membership = []cluster.MembershipEvent{
		{At: time.Second, Kind: cluster.MemberJoin, Node: testProto(200, 4)},
		{At: 3 * time.Second, Kind: cluster.MemberDrain, ID: 1},
	}
	c, err := cluster.New(cfg, policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(2,
		item(0, 30*time.Second, 20, 0),
		item(0, 30*time.Second, 20, 1), // resident on node 1 at drain time
	)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d, want 2", res.Completed)
	}
	if res.NodesJoined != 1 || res.NodesDrained != 1 || res.NodesRemoved != 1 {
		t.Errorf("membership counters: joined %d drained %d removed %d, want 1/1/1",
			res.NodesJoined, res.NodesDrained, res.NodesRemoved)
	}
	if res.DrainMigrations == 0 {
		t.Error("drain should have migrated node 1's resident job")
	}
	n1, err := c.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	if !n1.Removed() {
		t.Error("drained node 1 should be removed once empty")
	}
	if n1.NumJobs() != 0 {
		t.Errorf("removed node holds %d jobs", n1.NumJobs())
	}
	aud := c.Auditor()
	if aud == nil || aud.Checks() == 0 {
		t.Fatal("auditor did not run")
	}
	if v := aud.Violations(); len(v) != 0 {
		t.Fatalf("auditor violations: %v", v)
	}
}

// TestJoinedNodeAcceptsWork verifies a runtime join expands real capacity:
// with one saturated workstation, a joined one picks up the queued work.
func TestJoinedNodeAcceptsWork(t *testing.T) {
	cfg := smallCluster(1, 200, 1)
	cfg.Audit = true
	cfg.Membership = []cluster.MembershipEvent{
		{At: 2 * time.Second, Kind: cluster.MemberJoin, Node: testProto(200, 4)},
	}
	c, err := cluster.New(cfg, policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(1,
		item(0, 30*time.Second, 20, 0),
		item(time.Second, 10*time.Second, 20, 0),
		item(time.Second, 10*time.Second, 20, 0),
	)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed = %d, want 3", res.Completed)
	}
	if res.NodesJoined != 1 {
		t.Fatalf("joined = %d, want 1", res.NodesJoined)
	}
	// With a single original workstation, any remote submission can only
	// have landed on the joined one: capacity really expanded.
	if res.RemoteSubmissions == 0 {
		t.Error("joined node received no work; capacity did not expand")
	}
	if res.PendingPeak == 0 {
		t.Error("trace never queued, so the test exercised nothing")
	}
}

// TestDrainOfEmptyNodeRetiresImmediately drains an idle workstation: no
// migrations are needed and it retires at the next control period.
func TestDrainOfEmptyNodeRetiresImmediately(t *testing.T) {
	cfg := smallCluster(3, 200, 4)
	cfg.Audit = true
	cfg.Membership = []cluster.MembershipEvent{
		{At: time.Second, Kind: cluster.MemberDrain, ID: 2},
	}
	c, err := cluster.New(cfg, policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(3, item(0, 10*time.Second, 20, 0))
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesRemoved != 1 || res.DrainMigrations != 0 {
		t.Errorf("removed %d migrations %d, want 1 removals and 0 migrations",
			res.NodesRemoved, res.DrainMigrations)
	}
}

// TestAutoscalerJoinsUnderLoad floods a two-slot fleet and expects the
// utilization-threshold autoscaler to grow it.
func TestAutoscalerJoinsUnderLoad(t *testing.T) {
	cfg := smallCluster(2, 200, 1)
	cfg.Audit = true
	cfg.Autoscale = cluster.AutoscaleConfig{
		MaxNodes: 6,
		Proto:    testProto(200, 1),
		Cooldown: 2 * time.Second,
	}
	c, err := cluster.New(cfg, policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	var items []trace.Item
	for i := 0; i < 8; i++ {
		items = append(items, item(time.Duration(i)*time.Second/4, 60*time.Second, 20, i%2))
	}
	res, err := c.Run(testTrace(2, items...))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 {
		t.Fatalf("completed = %d, want 8", res.Completed)
	}
	if res.AutoscaleUps == 0 {
		t.Error("autoscaler never scaled up under 4x slot oversubscription")
	}
	if res.NodesJoined != res.AutoscaleUps {
		t.Errorf("joins %d != autoscale ups %d", res.NodesJoined, res.AutoscaleUps)
	}
	if aud := c.Auditor(); len(aud.Violations()) != 0 {
		t.Fatalf("auditor violations: %v", aud.Violations())
	}
}

// TestMembershipConfigValidation rejects malformed membership scripts.
func TestMembershipConfigValidation(t *testing.T) {
	base := func() cluster.Config { return smallCluster(2, 100, 4) }

	bad := base()
	bad.Membership = []cluster.MembershipEvent{{At: -time.Second, Kind: cluster.MemberDrain, ID: 0}}
	if _, err := cluster.New(bad, policy.NoSharing{}); err == nil {
		t.Error("negative membership time should fail validation")
	}
	bad = base()
	bad.Membership = []cluster.MembershipEvent{{At: time.Second, Kind: cluster.MembershipKind(9)}}
	if _, err := cluster.New(bad, policy.NoSharing{}); err == nil {
		t.Error("unknown membership kind should fail validation")
	}
	bad = base()
	bad.Autoscale = cluster.AutoscaleConfig{MaxNodes: 1} // below initial fleet
	if _, err := cluster.New(bad, policy.NoSharing{}); err == nil {
		t.Error("autoscale max below initial fleet should fail validation")
	}
	bad = base()
	bad.Autoscale = cluster.AutoscaleConfig{MaxNodes: 4, HighUtil: 0.2, LowUtil: 0.5}
	if _, err := cluster.New(bad, policy.NoSharing{}); err == nil {
		t.Error("inverted autoscale thresholds should fail validation")
	}
}

// TestLeaseCrashDrainInterleavings runs V-Reconfiguration on the standard
// trace with short leases, aggressive crash injection, and scripted drains,
// across several seeds, pinning every interleaving of lease expiry, crash,
// and drain against the invariant auditor: whatever order the three hit a
// workstation in, no job may be lost or duplicated and no removed
// workstation may keep state.
func TestLeaseCrashDrainInterleavings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed fault interleaving sweep")
	}
	var sawDrainBreak, sawLeaseExpiry bool
	for _, seed := range []int64{1, 2} {
		tr, err := trace.Standard(workload.Group1, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.Cluster1()
		cfg.Audit = true
		// A wedged interleaving should fail fast, not grind for the default
		// 1000 virtual hours.
		cfg.MaxVirtualTime = 24 * time.Hour
		cfg.Faults = faults.Plan{
			Seed:      seed,
			MTBF:      20 * time.Minute,
			Crash:     faults.Requeue,
			DropRate:  0.02,
			AbortRate: 0.05,
		}
		cfg.Membership = []cluster.MembershipEvent{
			{At: 5 * time.Minute, Kind: cluster.MemberDrain, ID: 31},
			{At: 10 * time.Minute, Kind: cluster.MemberDrain, ID: 30},
			{At: 15 * time.Minute, Kind: cluster.MemberJoin, Node: cfg.Nodes[0]},
		}
		c, err := cluster.New(cfg, sched)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(tr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Completed+res.Killed != res.Jobs {
			t.Fatalf("seed %d wedged: %d + %d of %d jobs", seed, res.Completed, res.Killed, res.Jobs)
		}
		if res.NodesDrained < 2 {
			t.Errorf("seed %d: drained %d, want >= 2", seed, res.NodesDrained)
		}
		aud := c.Auditor()
		if aud.Checks() == 0 {
			t.Fatalf("seed %d: auditor did not run", seed)
		}
		if v := aud.Violations(); len(v) != 0 {
			t.Fatalf("seed %d: auditor violations: %v", seed, v)
		}
		st := sched.Manager().Stats()
		if st.DrainBroken > 0 {
			sawDrainBreak = true
		}
		if res.LeaseExpiries > 0 {
			sawLeaseExpiry = true
		}
	}
	if !sawLeaseExpiry {
		t.Error("no seed exercised a lease expiry; the interleaving sweep lost its bite")
	}
	_ = sawDrainBreak // drain-broken leases depend on the seed; logged via stats when they occur
}

// refillChecker runs the in-place refill check at every control period of
// the scheduler it wraps.
type refillChecker struct {
	cluster.Scheduler
	t   *testing.T
	cov cluster.RefillCoverage
}

func (r *refillChecker) OnControl(c *cluster.Cluster, now time.Duration) {
	r.Scheduler.OnControl(c, now)
	if err := cluster.CheckRefills(c, &r.cov); err != nil {
		r.t.Fatalf("at %v: %v", now, err)
	}
}

// TestAuditViewsAndSamplesRefilledInPlace refills the reused audit views
// and sample batch over sentinels at every control period of a run with
// reservations, crashes, drains, removals and a join, and holds every view
// and sample to a freshly built one (cluster.CheckRefills).
func TestAuditViewsAndSamplesRefilledInPlace(t *testing.T) {
	// App-Trace-2 on Cluster2, where jobs block and V-Reconfiguration
	// reserves workstations, with domain crash waves, a join and a drain.
	tr, err := trace.Standard(workload.Group2, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewVReconfiguration(core.Options{Lease: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Cluster2()
	cfg.Quantum = 100 * time.Millisecond
	cfg.Audit = true
	cfg.Faults = faults.Plan{Seed: 42, Crash: faults.Requeue, Domains: 8, DomainMTBF: time.Hour}
	cfg.Membership = []cluster.MembershipEvent{
		{At: 5 * time.Minute, Kind: cluster.MemberJoin, Node: cfg.Nodes[0]},
		{At: 12 * time.Minute, Kind: cluster.MemberDrain, ID: 3},
	}
	chk := &refillChecker{Scheduler: sched, t: t}
	c, err := cluster.New(cfg, chk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesJoined != 1 || res.NodesRemoved != 1 {
		t.Errorf("joined %d, removed %d, want 1 each", res.NodesJoined, res.NodesRemoved)
	}
	cov := chk.cov
	t.Logf("%+v", cov)
	if cov.Reserved == 0 || cov.Down == 0 || cov.Draining == 0 || cov.Removed == 0 {
		t.Errorf("coverage %+v: want views compared while reserved, down, draining and removed", cov)
	}
}
