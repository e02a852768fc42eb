package cluster_test

import (
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/faults"
	"vrcluster/internal/memory"
	"vrcluster/internal/metrics"
	"vrcluster/internal/network"
	"vrcluster/internal/node"
	"vrcluster/internal/policy"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// smallCluster builds an n-node test cluster with the given per-node
// memory and slot count.
func smallCluster(n int, memMB float64, slots int) cluster.Config {
	cfg := cluster.Homogeneous(n, node.Config{
		CPUSpeedMHz:  400,
		CPUThreshold: slots,
		Memory:       memory.Config{CapacityMB: memMB, UserFraction: 1},
	})
	cfg.Quantum = 10 * time.Millisecond
	cfg.MaxVirtualTime = 2 * time.Hour
	return cfg
}

// item builds a trace item. All test jobs use the t-sim program's phase
// shape scaled to the given working set.
func item(submit time.Duration, cpu time.Duration, wsMB float64, home int) trace.Item {
	return trace.Item{
		SubmitMillis: submit.Milliseconds(),
		Program:      "t-sim",
		CPUMillis:    cpu.Milliseconds(),
		WorkingSetMB: wsMB,
		Home:         home,
	}
}

func testTrace(nodes int, items ...trace.Item) *trace.Trace {
	var maxSubmit int64
	for _, it := range items {
		if it.SubmitMillis > maxSubmit {
			maxSubmit = it.SubmitMillis
		}
	}
	return &trace.Trace{
		Name:           "test",
		Group:          workload.Group2,
		DurationMillis: maxSubmit + 1000,
		Nodes:          nodes,
		Items:          items,
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := cluster.New(cluster.Config{}, policy.NoSharing{}); err == nil {
		t.Error("empty config should fail")
	}
	cfg := smallCluster(2, 100, 4)
	if _, err := cluster.New(cfg, nil); err == nil {
		t.Error("nil scheduler should fail")
	}
	bad := cfg
	bad.Quantum = 2 * time.Second // above control period
	if _, err := cluster.New(bad, policy.NoSharing{}); err == nil {
		t.Error("quantum above control period should fail")
	}
	c, err := cluster.New(cfg, policy.NoSharing{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Network() != network.Default {
		t.Error("network default not applied")
	}
	if len(c.Nodes()) != 2 {
		t.Errorf("nodes = %d", len(c.Nodes()))
	}
	if _, err := c.Node(5); err == nil {
		t.Error("out-of-range node should fail")
	}
}

func TestSingleJobRuns(t *testing.T) {
	c, err := cluster.New(smallCluster(2, 100, 4), policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(2, item(time.Second, 5*time.Second, 20, 0))
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 1 {
		t.Fatalf("jobs = %d", res.Jobs)
	}
	if res.MeanSlowdown < 1 || res.MeanSlowdown > 1.1 {
		t.Errorf("solo slowdown = %v, want ~1", res.MeanSlowdown)
	}
	if res.TotalExec != res.TotalCPU+res.TotalPage+res.TotalQueue+res.TotalMig {
		t.Error("Section 5 identity violated")
	}
	if res.Makespan < 6*time.Second || res.Makespan > 7*time.Second {
		t.Errorf("makespan = %v, want ~6s", res.Makespan)
	}
}

func TestTraceClusterSizeMismatch(t *testing.T) {
	c, err := cluster.New(smallCluster(2, 100, 4), policy.NoSharing{})
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(3, item(0, time.Second, 1, 0))
	if _, err := c.Run(tr); err == nil {
		t.Error("node-count mismatch should fail")
	}
}

func TestSlotSaturationQueues(t *testing.T) {
	// 1 node, 1 slot, 3 jobs: they must serialize through the pending
	// queue and all complete.
	c, err := cluster.New(smallCluster(1, 1000, 1), policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(1,
		item(0, 5*time.Second, 10, 0),
		item(0, 5*time.Second, 10, 0),
		item(0, 5*time.Second, 10, 0),
	)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 3 {
		t.Fatalf("jobs = %d", res.Jobs)
	}
	// Serialized: last job waits ~10s, so mean slowdown ~2.
	if res.MeanSlowdown < 1.5 {
		t.Errorf("mean slowdown = %v, expected serialization penalty", res.MeanSlowdown)
	}
	if res.TotalQueue == 0 {
		t.Error("queuing time should be nonzero under saturation")
	}
	if res.PendingPeak < 1 {
		t.Errorf("pending peak = %d, want >= 1", res.PendingPeak)
	}
}

func TestRemoteSubmissionWhenHomeFull(t *testing.T) {
	// Home node 0 has its only slot taken; the second job must be
	// remotely submitted to node 1.
	c, err := cluster.New(smallCluster(2, 1000, 1), policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(2,
		item(0, 10*time.Second, 10, 0),
		item(2*time.Second, 10*time.Second, 10, 0),
	)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteSubmissions != 1 {
		t.Errorf("remote submissions = %d, want 1", res.RemoteSubmissions)
	}
	// The remote job carries the submission cost r as migration-bucket
	// overhead.
	if res.TotalMig < network.Default.SubmissionCost() {
		t.Errorf("total migration overhead = %v, want >= r", res.TotalMig)
	}
	// Both ran concurrently on separate nodes: low slowdowns.
	if res.MeanSlowdown > 1.3 {
		t.Errorf("mean slowdown = %v, want near 1", res.MeanSlowdown)
	}
}

func TestPressureMigration(t *testing.T) {
	// Two jobs whose combined demand overcommits node 0 while node 1
	// sits idle: G-Loadsharing must migrate one away.
	c, err := cluster.New(smallCluster(2, 100, 4), policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(2,
		item(0, 30*time.Second, 70, 0),
		item(0, 30*time.Second, 70, 0),
	)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations < 1 {
		t.Errorf("migrations = %d, want >= 1", res.Migrations)
	}
	if res.BlockingEpisodes != 0 {
		t.Errorf("blocking episodes = %d, want 0 (a destination existed)", res.BlockingEpisodes)
	}
}

func TestNoSharingNeverMigrates(t *testing.T) {
	c, err := cluster.New(smallCluster(2, 100, 4), policy.NoSharing{})
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(2,
		item(0, 10*time.Second, 70, 0),
		item(0, 10*time.Second, 70, 0),
	)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 || res.RemoteSubmissions != 0 {
		t.Errorf("no-sharing moved work: mig=%d remote=%d", res.Migrations, res.RemoteSubmissions)
	}
	// Both jobs thrash on node 0.
	if res.TotalPage == 0 {
		t.Error("expected paging under overcommit with no sharing")
	}
}

func TestCPUSharingBalancesCounts(t *testing.T) {
	c, err := cluster.New(smallCluster(2, 1000, 4), policy.CPUSharing{})
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(2,
		item(0, 10*time.Second, 10, 0),
		item(0, 10*time.Second, 10, 0),
	)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Second job goes to the other node: near-solo slowdowns.
	if res.MeanSlowdown > 1.3 {
		t.Errorf("mean slowdown = %v, want near 1", res.MeanSlowdown)
	}
	if res.RemoteSubmissions != 1 {
		t.Errorf("remote submissions = %d, want 1", res.RemoteSubmissions)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *trace.Trace {
		tr, err := trace.Generate(trace.Config{
			Name: "det", Group: workload.Group2, Sigma: 2, Mu: 2,
			Jobs: 30, Duration: 120 * time.Second, Nodes: 4, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	exec := func() time.Duration {
		cfg := smallCluster(4, 128, 4)
		cfg.MaxVirtualTime = 12 * time.Hour
		c, err := cluster.New(cfg, policy.NewGLoadSharing())
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(run())
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalExec
	}
	if a, b := exec(), exec(); a != b {
		t.Errorf("two identical runs differ: %v vs %v", a, b)
	}
}

func TestTimeout(t *testing.T) {
	cfg := smallCluster(1, 100, 1)
	cfg.MaxVirtualTime = 2 * time.Second
	c, err := cluster.New(cfg, policy.NoSharing{})
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(1, item(0, time.Hour, 10, 0))
	if _, err := c.Run(tr); err == nil {
		t.Error("hour-long job under 2s cap should time out")
	}
}

func TestSuspensionBaseline(t *testing.T) {
	// Three large jobs on a 2-node cluster with no escape: suspension
	// must kick in and still complete everything.
	s := policy.NewSuspension()
	cfg := smallCluster(2, 100, 4)
	cfg.MaxVirtualTime = 4 * time.Hour
	c, err := cluster.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(2,
		item(0, 20*time.Second, 80, 0),
		item(0, 20*time.Second, 80, 1),
		item(time.Second, 20*time.Second, 80, 0),
	)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 3 {
		t.Fatalf("jobs = %d", res.Jobs)
	}
	if res.Suspensions == 0 {
		t.Error("expected at least one suspension")
	}
	if s.SuspendedCount() != 0 {
		t.Errorf("%d jobs left suspended at end", s.SuspendedCount())
	}
}

func TestSharedNetworkContention(t *testing.T) {
	// Two simultaneous migrations from two pressured nodes: on a shared
	// Ethernet they contend and finish later than on dedicated links.
	runWith := func(shared bool) time.Duration {
		cfg := smallCluster(4, 100, 4)
		cfg.SharedNetwork = shared
		cfg.MaxVirtualTime = 4 * time.Hour
		c, err := cluster.New(cfg, policy.NewGLoadSharing())
		if err != nil {
			t.Fatal(err)
		}
		tr := testTrace(4,
			item(0, 60*time.Second, 70, 0),
			item(0, 60*time.Second, 70, 0),
			item(0, 60*time.Second, 70, 1),
			item(0, 60*time.Second, 70, 1),
		)
		res, err := c.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Migrations == 0 {
			t.Fatal("scenario should migrate")
		}
		if res.TotalExec != res.TotalCPU+res.TotalPage+res.TotalQueue+res.TotalMig {
			t.Error("Section 5 identity violated under shared network")
		}
		return res.TotalMig
	}
	dedicated := runWith(false)
	shared := runWith(true)
	if shared < dedicated {
		t.Errorf("shared-network migration time %v below dedicated %v", shared, dedicated)
	}
}

func TestRecordingFacility(t *testing.T) {
	cfg := smallCluster(2, 100, 4)
	cfg.RecordInterval = 10 * time.Millisecond
	c, err := cluster.New(cfg, policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(2,
		item(0, 2*time.Second, 20, 0),
		item(time.Second, 2*time.Second, 20, 1),
	)
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	log := c.Recording()
	if log == nil {
		t.Fatal("no recording captured")
	}
	if err := log.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(log.Jobs) != 2 {
		t.Fatalf("recorded %d jobs", len(log.Jobs))
	}
	// Recorded activity totals must match the jobs' reported breakdowns
	// to within one record interval per job.
	var recCPU time.Duration
	for _, jt := range log.Jobs {
		recCPU += jt.Totals().CPU
		if len(jt.Activities) == 0 {
			t.Errorf("job %d recorded no activity", jt.Header.JobID)
		}
	}
	diff := res.TotalCPU - recCPU
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*cfg.RecordInterval {
		t.Errorf("recorded CPU %v vs measured %v", recCPU, res.TotalCPU)
	}

	// Closed loop: the derived trace replays to the same totals.
	replay, err := trace.FromLog(log, workload.Group2)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cluster.New(smallCluster(2, 100, 4), policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Jobs != res.Jobs || res2.TotalCPU != res.TotalCPU {
		t.Errorf("replay diverged: jobs %d vs %d, cpu %v vs %v",
			res2.Jobs, res.Jobs, res2.TotalCPU, res.TotalCPU)
	}
}

func TestNoRecordingByDefault(t *testing.T) {
	c, err := cluster.New(smallCluster(1, 100, 4), policy.NoSharing{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(testTrace(1, item(0, time.Second, 10, 0))); err != nil {
		t.Fatal(err)
	}
	if c.Recording() != nil {
		t.Error("recording present without RecordInterval")
	}
}

// faultTrace is a steady stream of medium jobs across 4 nodes, long enough
// for injected crashes and transfer aborts to land mid-run.
func faultTrace(t *testing.T, jobs int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Config{
		Name: "faulty", Group: workload.Group2, Sigma: 2, Mu: 2,
		Jobs: jobs, Duration: 120 * time.Second, Nodes: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFaultsCrashKillPolicy(t *testing.T) {
	cfg := smallCluster(4, 128, 4)
	cfg.MaxVirtualTime = 12 * time.Hour
	cfg.Faults = faults.Plan{MTBF: 60 * time.Second, MTTR: 10 * time.Second, Crash: faults.Kill}
	c, err := cluster.New(cfg, policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(faultTrace(t, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeCrashes == 0 {
		t.Fatal("no crashes injected with a 60s MTBF over a long run")
	}
	if res.Killed == 0 {
		t.Error("kill policy lost no jobs despite crashes")
	}
	if res.Completed+res.Killed != res.Jobs {
		t.Errorf("completed %d + killed %d != %d jobs", res.Completed, res.Killed, res.Jobs)
	}
	if res.NodeRecoveries > res.NodeCrashes {
		t.Errorf("recoveries %d exceed crashes %d", res.NodeRecoveries, res.NodeCrashes)
	}
	for _, n := range c.Nodes() {
		if n.NumJobs() != 0 {
			t.Errorf("node %d still holds %d jobs", n.ID(), n.NumJobs())
		}
	}
}

func TestFaultsCrashRequeuePolicy(t *testing.T) {
	cfg := smallCluster(4, 128, 4)
	cfg.MaxVirtualTime = 12 * time.Hour
	// The ISSUE's no-wedge bound is MTBF >= 10x the mean job runtime
	// (~90s CPU here): below that, requeued work restarts faster than it
	// can finish and the livelock is physical, not a scheduler bug.
	cfg.Faults = faults.Plan{MTBF: 15 * time.Minute, MTTR: 30 * time.Second, Crash: faults.Requeue}
	c, err := cluster.New(cfg, policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(faultTrace(t, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeCrashes == 0 {
		t.Fatal("no crashes injected")
	}
	if res.JobsRequeued == 0 {
		t.Error("requeue policy requeued nothing despite crashes")
	}
	if res.Killed != 0 || res.Completed != res.Jobs {
		t.Errorf("requeue policy must finish every job: completed %d, killed %d of %d",
			res.Completed, res.Killed, res.Jobs)
	}
	restarts := 0
	for _, j := range c.RanJobs() {
		restarts += j.Restarts()
	}
	if restarts != res.JobsRequeued {
		t.Errorf("job restarts %d != requeue events %d", restarts, res.JobsRequeued)
	}
}

func TestFaultsAbortedTransfersRetryAndComplete(t *testing.T) {
	for _, shared := range []bool{false, true} {
		cfg := smallCluster(2, 100, 4)
		cfg.SharedNetwork = shared
		cfg.MaxVirtualTime = 4 * time.Hour
		cfg.Faults = faults.Plan{AbortRate: 0.7, MaxRetries: 5}
		c, err := cluster.New(cfg, policy.NewGLoadSharing())
		if err != nil {
			t.Fatal(err)
		}
		tr := testTrace(2,
			item(0, 30*time.Second, 70, 0),
			item(0, 30*time.Second, 70, 0),
		)
		res, err := c.Run(tr)
		if err != nil {
			t.Fatalf("shared=%v: %v", shared, err)
		}
		if res.Migrations == 0 {
			t.Fatalf("shared=%v: scenario should migrate", shared)
		}
		if res.MigrationAborts == 0 {
			t.Errorf("shared=%v: no aborts at rate 0.7", shared)
		}
		if res.MigrationRetries == 0 {
			t.Errorf("shared=%v: aborts never retried", shared)
		}
		if res.Completed != res.Jobs {
			t.Errorf("shared=%v: completed %d of %d", shared, res.Completed, res.Jobs)
		}
		if res.TotalExec != res.TotalCPU+res.TotalPage+res.TotalQueue+res.TotalMig {
			t.Errorf("shared=%v: Section 5 identity violated under aborts", shared)
		}
	}
}

func TestFaultsRefreshDropsCounted(t *testing.T) {
	cfg := smallCluster(4, 128, 4)
	cfg.MaxVirtualTime = 12 * time.Hour
	cfg.Faults = faults.Plan{DropRate: 0.5}
	c, err := cluster.New(cfg, policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(faultTrace(t, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.RefreshDrops == 0 {
		t.Error("no load exchanges dropped at rate 0.5")
	}
	if res.Completed != res.Jobs {
		t.Errorf("completed %d of %d under stale vectors", res.Completed, res.Jobs)
	}
}

// Determinism is a hard invariant: the same seed and fault plan must yield
// byte-identical results.
func TestFaultsDeterministic(t *testing.T) {
	run := func() *metrics.Result {
		cfg := smallCluster(4, 128, 4)
		cfg.MaxVirtualTime = 12 * time.Hour
		cfg.SharedNetwork = true
		cfg.Faults = faults.Plan{
			Seed: 11, MTBF: 15 * time.Minute, MTTR: 30 * time.Second,
			Crash: faults.Requeue, DropRate: 0.2, AbortRate: 0.3,
		}
		c, err := cluster.New(cfg, policy.NewGLoadSharing())
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(faultTrace(t, 40, 5))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical faulty runs differ:\n%+v\n%+v", a, b)
	}
}

// TestNextPressured walks the pressured set across mask words, and sees a
// workstation that turns pressured ahead of the walk.
func TestNextPressured(t *testing.T) {
	c, err := cluster.New(smallCluster(130, 100, 4), policy.NewGLoadSharing())
	if err != nil {
		t.Fatal(err)
	}
	press := func(id int) {
		t.Helper()
		if err := c.Nodes()[id].ExpectMigration(1000+id, 150); err != nil {
			t.Fatal(err)
		}
	}
	walk := func() []int {
		var ids []int
		for id, ok := c.NextPressured(0); ok; id, ok = c.NextPressured(id + 1) {
			ids = append(ids, id)
			if id == 3 {
				press(70) // turns pressured while the walk stands at node 3
			}
		}
		return ids
	}
	for _, id := range []int{3, 64, 129} {
		press(id)
	}
	if got, want := walk(), []int{3, 64, 70, 129}; !reflect.DeepEqual(got, want) {
		t.Errorf("walk visited %v, want %v", got, want)
	}
	if id, ok := c.NextPressured(130); ok {
		t.Errorf("NextPressured past the last node = %d", id)
	}
}
