package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/memory"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
	"vrcluster/internal/stats"
)

func buildNode(t *testing.T, id int, capacityMB float64) *node.Node {
	t.Helper()
	n, err := node.New(node.Config{
		ID: id, CPUSpeedMHz: 400, CPUThreshold: 4,
		Memory: memory.Config{CapacityMB: capacityMB, UserFraction: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sample is one live workstation's entry in the batch Observe reads.
func sample(node int, idleMB float64, jobs int, flags uint8) obs.Event {
	return obs.Event{
		Kind: obs.KindNodeSample, Flags: flags, Node: int32(node),
		Job: -1, Aux: int32(jobs), Val: idleMB,
	}
}

// batch reads the live nodes into a sample batch the way the cluster's
// sample tick does: one event per node in node order, removed ones left
// out.
func batch(nodes ...*node.Node) []obs.Event {
	var out []obs.Event
	for _, n := range nodes {
		if n.Removed() {
			continue
		}
		var fl uint8
		if n.Reserved() {
			fl |= obs.FlagReserved
		}
		if n.Down() {
			fl |= obs.FlagDown
		}
		if n.Draining() {
			fl |= obs.FlagDrain
		}
		out = append(out, sample(n.ID(), n.IdleMB(), n.NumJobs(), fl))
	}
	return out
}

func doneJob(t *testing.T, id int, cpu, wall time.Duration) *job.Job {
	t.Helper()
	j, err := job.New(id, "p", cpu, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(0, 0); err != nil {
		t.Fatal(err)
	}
	queue := wall - cpu
	if done, err := j.Account(cpu, 0, queue, wall); err != nil || !done {
		t.Fatalf("account: %v %v", done, err)
	}
	return j
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector(0); err == nil {
		t.Error("zero interval should error")
	}
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c.Interval() != time.Second {
		t.Errorf("Interval = %v", c.Interval())
	}
}

func TestObserveAndAverages(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a := buildNode(t, 0, 100)
	b := buildNode(t, 1, 100)
	j, err := job.New(1, "p", time.Hour, []job.Phase{{EndFrac: 1, StartMB: 40, EndMB: 40}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		c.Observe(time.Duration(i)*time.Second, batch(a, b), 0)
	}
	idle, err := c.AvgIdleMB(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idle-160) > 1e-9 {
		t.Errorf("avg idle = %v, want 160", idle)
	}
	skew, err := c.AvgSkew(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// counts are {1, 0}: population stddev 0.5.
	if math.Abs(skew-0.5) > 1e-9 {
		t.Errorf("avg skew = %v, want 0.5", skew)
	}
}

func TestReservedNodesExcludedFromSkew(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(time.Second, []obs.Event{sample(0, 100, 0, 0), sample(1, 100, 0, obs.FlagReserved)}, 0)
	skew, err := c.AvgSkew(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if skew != 0 {
		t.Errorf("single non-reserved node should yield zero skew, got %v", skew)
	}
	// Reserved node's idle memory still counts toward the volume.
	idle, err := c.AvgIdleMB(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if idle != 200 {
		t.Errorf("idle = %v, want 200", idle)
	}
}

// TestObserveBatchMatchesNodeWalk pins Observe over a sample batch to what
// a walk over the workstations themselves gives: idle memory and resident
// jobs summed over the live nodes in node order, a reserved node counted
// and left out of the skew, a down node kept in, and a removed node absent
// from every figure.
func TestObserveBatchMatchesNodeWalk(t *testing.T) {
	admit := func(n *node.Node, id int, mb float64) {
		t.Helper()
		j, err := job.New(id, "p", time.Hour, []job.Phase{{EndFrac: 1, StartMB: mb, EndMB: mb}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Admit(j, 0); err != nil {
			t.Fatal(err)
		}
	}
	busy := buildNode(t, 0, 100) // two jobs, idle 35.5
	admit(busy, 1, 40)
	admit(busy, 2, 24.5)
	reserved := buildNode(t, 1, 100) // one job, idle 70.25, reserved
	admit(reserved, 3, 29.75)
	reserved.SetReserved(true)
	removed := buildNode(t, 2, 100)
	if err := removed.Remove(); err != nil {
		t.Fatal(err)
	}
	down := buildNode(t, 3, 100)
	if _, err := down.Crash(0); err != nil {
		t.Fatal(err)
	}
	single := buildNode(t, 4, 80) // one job, idle 70.1
	admit(single, 4, 9.9)
	nodes := []*node.Node{busy, reserved, removed, down, single}

	// The node walk the collector made before it read the batch.
	idle, running, nres := 0.0, 0, 0
	var counts []float64
	for _, n := range nodes {
		if n.Removed() {
			continue
		}
		idle += n.IdleMB()
		running += n.NumJobs()
		if n.Reserved() {
			nres++
			continue
		}
		counts = append(counts, float64(n.NumJobs()))
	}
	want := Sample{At: time.Second, IdleMB: idle, Skew: stats.StdDev(counts), Running: running, Pending: 2, Reserved: nres}
	if want.Running != 4 || want.Reserved != 1 || want.IdleMB != 35.5+70.25+100+(80-9.9) {
		t.Fatalf("node walk = %+v, want running 4, reserved 1, idle %v", want, 35.5+70.25+100+(80-9.9))
	}

	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(time.Second, batch(nodes...), 2)
	if got := c.Samples(); len(got) != 1 || got[0] != want {
		t.Fatalf("batch sample = %+v, want the node walk's %+v", got, want)
	}
	// Skew over {2, 0, 1}: population stddev sqrt(2/3).
	if math.Abs(want.Skew-math.Sqrt(2.0/3)) > 1e-12 {
		t.Errorf("skew = %v, want sqrt(2/3)", want.Skew)
	}
}

func TestIntervalSubsampling(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 60; i++ {
		c.Observe(time.Duration(i)*time.Second, []obs.Event{sample(0, 100, 0, 0)}, 0)
	}
	// Constant series: every interval yields the same average — the
	// paper's insensitivity observation holds trivially here.
	for _, every := range []time.Duration{time.Second, 10 * time.Second, 30 * time.Second, time.Minute} {
		got, err := c.AvgIdleMB(every)
		if err != nil {
			t.Fatal(err)
		}
		if got != 100 {
			t.Errorf("avg at %v = %v, want 100", every, got)
		}
	}
	if _, err := c.AvgIdleMB(time.Millisecond); err == nil {
		t.Error("interval below base should error")
	}
}

func TestAveragesWithoutSamples(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AvgIdleMB(time.Second); err == nil {
		t.Error("empty collector should error")
	}
}

func TestBuildResult(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(time.Second, []obs.Event{sample(0, 100, 0, 0)}, 0)
	c.Migrations = 3
	c.BlockingEpisodes = 2

	jobs := []*job.Job{
		doneJob(t, 1, 10*time.Second, 20*time.Second), // slowdown 2
		doneJob(t, 2, 10*time.Second, 40*time.Second), // slowdown 4
	}
	r, err := BuildResult("T", "P", jobs, c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 2 || r.Trace != "T" || r.Policy != "P" {
		t.Errorf("header = %+v", r)
	}
	if r.TotalExec != 60*time.Second {
		t.Errorf("TotalExec = %v, want 60s", r.TotalExec)
	}
	if r.TotalCPU != 20*time.Second || r.TotalQueue != 40*time.Second {
		t.Errorf("breakdown cpu=%v queue=%v", r.TotalCPU, r.TotalQueue)
	}
	if r.MeanSlowdown != 3 || r.MaxSlowdown != 4 {
		t.Errorf("slowdowns mean=%v max=%v", r.MeanSlowdown, r.MaxSlowdown)
	}
	if r.Makespan != 40*time.Second {
		t.Errorf("makespan = %v", r.Makespan)
	}
	if r.Migrations != 3 || r.BlockingEpisodes != 2 {
		t.Errorf("counters = %+v", r)
	}
	// The decomposition identity: exec = cpu + page + queue + mig.
	if r.TotalExec != r.TotalCPU+r.TotalPage+r.TotalQueue+r.TotalMig {
		t.Error("Section 5 identity violated")
	}
}

func TestBuildResultRejectsUnfinished(t *testing.T) {
	j, err := job.New(1, "p", time.Second, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildResult("T", "P", []*job.Job{j}, nil); err == nil {
		t.Error("pending job should be rejected")
	}
	if _, err := BuildResult("T", "P", nil, nil); err == nil {
		t.Error("empty job list should be rejected")
	}
}

func TestBuildResultNilCollector(t *testing.T) {
	jobs := []*job.Job{doneJob(t, 1, time.Second, time.Second)}
	r, err := BuildResult("T", "P", jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgIdleMB != 0 || r.Collector() != nil {
		t.Error("nil collector should leave sampling fields zero")
	}
}

func TestReduction(t *testing.T) {
	tests := []struct {
		base, got, want float64
	}{
		{100, 70, 0.3},
		{100, 100, 0},
		{100, 130, -0.3},
		{0, 5, 0},
	}
	for _, tt := range tests {
		if got := Reduction(tt.base, tt.got); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Reduction(%v, %v) = %v, want %v", tt.base, tt.got, got, tt.want)
		}
	}
}

func TestSamplesReturnsCopy(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(time.Second, []obs.Event{sample(0, 100, 0, 0)}, 0)
	s := c.Samples()
	s[0].IdleMB = -1
	if c.Samples()[0].IdleMB == -1 {
		t.Error("Samples leaked internal slice")
	}
}

func TestWriteJobsCSV(t *testing.T) {
	jobs := []*job.Job{
		doneJob(t, 1, 10*time.Second, 20*time.Second),
		doneJob(t, 2, 5*time.Second, 5*time.Second),
	}
	var buf bytes.Buffer
	if err := WriteJobsCSV(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "job,program") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], ",2.0000,") {
		t.Errorf("row 1 missing slowdown 2: %q", lines[1])
	}
	// Unfinished jobs are rejected.
	pending, err := job.New(9, "p", time.Second, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJobsCSV(&buf, []*job.Job{pending}); err == nil {
		t.Error("pending job should be rejected")
	}
}

func TestWriteCSVSeries(t *testing.T) {
	c, err := NewCollector(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(time.Second, []obs.Event{sample(0, 100, 0, 0)}, 3)
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "seconds,idle_mb") {
		t.Errorf("header missing: %q", out)
	}
	if !strings.Contains(out, ",3,") {
		t.Errorf("pending count missing: %q", out)
	}
}
