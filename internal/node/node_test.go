package node

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/memory"
)

func newNode(t *testing.T, capacityMB float64, slots int) *Node {
	t.Helper()
	n, err := New(Config{
		ID:           0,
		CPUSpeedMHz:  400,
		CPUThreshold: slots,
		Memory:       memory.Config{CapacityMB: capacityMB, UserFraction: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newJob(t *testing.T, id int, cpu time.Duration, memMB float64) *job.Job {
	t.Helper()
	var phases []job.Phase
	if memMB > 0 {
		phases = []job.Phase{{EndFrac: 1, StartMB: memMB, EndMB: memMB}}
	}
	j, err := job.New(id, "test", cpu, phases, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestConfigValidation(t *testing.T) {
	base := Config{CPUSpeedMHz: 400, CPUThreshold: 4, Memory: memory.Config{CapacityMB: 128}}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero speed", func(c *Config) { c.CPUSpeedMHz = 0 }},
		{"negative ref", func(c *Config) { c.RefSpeedMHz = -1 }},
		{"zero threshold", func(c *Config) { c.CPUThreshold = 0 }},
		{"negative switch", func(c *Config) { c.ContextSwitch = -1 }},
		{"bad memory", func(c *Config) { c.Memory.CapacityMB = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
	n, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if n.Config().ContextSwitch != DefaultContextSwitch {
		t.Error("context switch default not applied")
	}
	if n.SpeedFactor() != 1 {
		t.Errorf("speed factor = %v, want 1 (ref defaults to own speed)", n.SpeedFactor())
	}
}

func TestAdmitRespectsSlots(t *testing.T) {
	n := newNode(t, 1000, 2)
	for i := 0; i < 2; i++ {
		if err := n.Admit(newJob(t, i, time.Second, 10), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n.HasSlot() {
		t.Error("threshold reached but HasSlot true")
	}
	if err := n.Admit(newJob(t, 9, time.Second, 10), 0); err == nil {
		t.Error("admit past CPU threshold should fail")
	}
	if n.NumJobs() != 2 {
		t.Errorf("NumJobs = %d", n.NumJobs())
	}
}

func TestSingleJobRunsAtFullSpeed(t *testing.T) {
	n := newNode(t, 1000, 4)
	j := newJob(t, 1, time.Second, 10)
	if err := n.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	dt := 10 * time.Millisecond
	var done []*job.Job
	for i := 0; i < 200 && len(done) == 0; i++ {
		now += dt
		d, err := n.Fold(dt, now, 1)
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, d...)
	}
	if len(done) != 1 {
		t.Fatal("job never completed")
	}
	// No memory pressure, solo: wall ~= cpu demand (within one quantum).
	w, err := j.WallTime()
	if err != nil {
		t.Fatal(err)
	}
	if w < time.Second || w > time.Second+2*dt {
		t.Errorf("wall = %v, want ~1s", w)
	}
	s, _ := j.Slowdown()
	if s < 1 || s > 1.05 {
		t.Errorf("slowdown = %v, want ~1", s)
	}
	if n.NumJobs() != 0 {
		t.Error("completed job still resident")
	}
}

func TestTwoJobsShareCPU(t *testing.T) {
	n := newNode(t, 1000, 4)
	a := newJob(t, 1, time.Second, 10)
	b := newJob(t, 2, time.Second, 10)
	if err := n.Admit(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Admit(b, 0); err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	dt := 10 * time.Millisecond
	for i := 0; i < 300 && n.NumJobs() > 0; i++ {
		now += dt
		if _, err := n.Fold(dt, now, 1); err != nil {
			t.Fatal(err)
		}
	}
	sa, _ := a.Slowdown()
	if sa < 1.9 || sa > 2.2 {
		t.Errorf("shared slowdown = %v, want ~2 (round-robin between 2 jobs)", sa)
	}
	// Roughly half the wall time is queuing behind the other job.
	q := a.Breakdown().Queue
	if q < 900*time.Millisecond || q > 1200*time.Millisecond {
		t.Errorf("queue time = %v, want ~1s", q)
	}
}

func TestMemoryPressureSlowsJobs(t *testing.T) {
	run := func(memMB float64) time.Duration {
		n := newNode(t, 100, 4)
		j := newJob(t, 1, time.Second, memMB)
		if err := n.Admit(j, 0); err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		dt := 10 * time.Millisecond
		for i := 0; i < 10000 && n.NumJobs() > 0; i++ {
			now += dt
			if _, err := n.Fold(dt, now, 1); err != nil {
				t.Fatal(err)
			}
		}
		w, err := j.WallTime()
		if err != nil {
			t.Fatal(err)
		}
		if j.Breakdown().Page == 0 && memMB > 100 {
			t.Error("oversized job recorded no page time")
		}
		return w
	}
	fit := run(50)
	over := run(200)
	if over <= fit {
		t.Errorf("overcommitted run (%v) not slower than fitting run (%v)", over, fit)
	}
}

func TestSlowerCPUSlowsProgress(t *testing.T) {
	slow, err := New(Config{
		ID: 1, CPUSpeedMHz: 200, RefSpeedMHz: 400, CPUThreshold: 4,
		Memory: memory.Config{CapacityMB: 1000, UserFraction: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob(t, 1, time.Second, 10)
	if err := slow.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	dt := 10 * time.Millisecond
	for i := 0; i < 1000 && slow.NumJobs() > 0; i++ {
		now += dt
		if _, err := slow.Fold(dt, now, 1); err != nil {
			t.Fatal(err)
		}
	}
	w, err := j.WallTime()
	if err != nil {
		t.Fatal(err)
	}
	if w < 1900*time.Millisecond || w > 2100*time.Millisecond {
		t.Errorf("half-speed wall = %v, want ~2s", w)
	}
}

func TestDetachAndAttach(t *testing.T) {
	src := newNode(t, 1000, 4)
	dst := newNode(t, 1000, 4)
	j := newJob(t, 1, time.Second, 50)
	if err := src.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.Detach(j, 0); err != nil {
		t.Fatal(err)
	}
	if src.NumJobs() != 0 || src.Memory().DemandMB() != 0 {
		t.Error("detach left residue on source")
	}
	if err := src.Detach(j, 0); err == nil {
		t.Error("double detach should fail")
	}
	if err := dst.AttachMigrated(j, 2*time.Second, true, 0); err != nil {
		t.Fatal(err)
	}
	if dst.NumJobs() != 1 || dst.ReservedJobCount() != 1 {
		t.Errorf("jobs=%d special=%d", dst.NumJobs(), dst.ReservedJobCount())
	}
	if j.Breakdown().Migration != 2*time.Second {
		t.Errorf("migration time = %v", j.Breakdown().Migration)
	}
	if math.Abs(dst.Memory().DemandMB()-50) > 1e-9 {
		t.Errorf("destination demand = %v, want 50", dst.Memory().DemandMB())
	}
}

func TestAttachRespectsSlots(t *testing.T) {
	src := newNode(t, 1000, 4)
	dst := newNode(t, 1000, 1)
	if err := dst.Admit(newJob(t, 5, time.Second, 1), 0); err != nil {
		t.Fatal(err)
	}
	j := newJob(t, 1, time.Second, 50)
	if err := src.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	if err := src.Detach(j, 0); err != nil {
		t.Fatal(err)
	}
	if err := dst.AttachMigrated(j, 0, false, 0); err == nil {
		t.Error("attach past CPU threshold should fail")
	}
}

func TestMostMemoryIntensiveJob(t *testing.T) {
	n := newNode(t, 1000, 4)
	if n.MostMemoryIntensiveJob() != nil {
		t.Error("empty node should return nil")
	}
	small := newJob(t, 1, time.Minute, 10)
	big := newJob(t, 2, time.Minute, 90)
	mid := newJob(t, 3, time.Minute, 40)
	for _, j := range []*job.Job{small, big, mid} {
		if err := n.Admit(j, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.MostMemoryIntensiveJob(); got != big {
		t.Errorf("picked job %d, want %d", got.ID, big.ID)
	}
}

func TestReservationFlag(t *testing.T) {
	n := newNode(t, 1000, 4)
	if n.Reserved() {
		t.Error("fresh node reserved")
	}
	n.SetReserved(true)
	if !n.Reserved() {
		t.Error("SetReserved(true) ignored")
	}
	n.SetReserved(false)
	if n.Reserved() {
		t.Error("SetReserved(false) ignored")
	}
}

func TestTickRejectsBadQuantum(t *testing.T) {
	n := newNode(t, 1000, 4)
	if _, err := n.Fold(0, 0, 1); err == nil {
		t.Error("zero quantum should error")
	}
	if _, err := n.Fold(-time.Second, 0, 1); err == nil {
		t.Error("negative quantum should error")
	}
}

func TestDemandTracksPhases(t *testing.T) {
	n := newNode(t, 1000, 4)
	j, err := job.New(1, "ramp", time.Second, []job.Phase{
		{EndFrac: 0.5, StartMB: 10, EndMB: 100},
		{EndFrac: 1, StartMB: 100, EndMB: 100},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	if got := n.Memory().DemandMB(); got != 10 {
		t.Errorf("initial demand = %v, want 10", got)
	}
	now := time.Duration(0)
	dt := 10 * time.Millisecond
	for i := 0; i < 60; i++ { // ~600ms of progress, past the ramp
		now += dt
		if _, err := n.Fold(dt, now, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Memory().DemandMB(); math.Abs(got-100) > 1 {
		t.Errorf("demand after ramp = %v, want ~100", got)
	}
}

// Property: per-quantum accounting conserves wall time — for any quantum
// and job mix, cpu-wall + page + queue of each accounted quantum never
// exceeds the quantum.
func TestTickConservationProperty(t *testing.T) {
	f := func(jobCount uint8, memSeed uint16) bool {
		count := int(jobCount%5) + 1
		n := newNode(t, 100, 8)
		var jobs []*job.Job
		for i := 0; i < count; i++ {
			m := float64((int(memSeed)*(i+1))%150) + 1
			j := newJob(t, i, 10*time.Second, m)
			if err := n.Admit(j, 0); err != nil {
				return false
			}
			jobs = append(jobs, j)
		}
		dt := 10 * time.Millisecond
		if _, err := n.Fold(dt, dt, 1); err != nil {
			return false
		}
		for _, j := range jobs {
			b := j.Breakdown()
			wall := time.Duration(float64(b.CPU)) + b.Page + b.Queue
			if wall > dt+time.Microsecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: no job is lost or duplicated across detach/attach cycles.
func TestMigrationConservationProperty(t *testing.T) {
	f := func(moves []uint8) bool {
		a := newNode(t, 10000, 64)
		b := newNode(t, 10000, 64)
		const total = 8
		where := make(map[int]*Node, total)
		jobs := make(map[int]*job.Job, total)
		for i := 0; i < total; i++ {
			j := newJob(t, i, time.Hour, 5)
			if err := a.Admit(j, 0); err != nil {
				return false
			}
			where[i] = a
			jobs[i] = j
		}
		for _, mv := range moves {
			id := int(mv) % total
			src := where[id]
			dst := a
			if src == a {
				dst = b
			}
			if err := src.Detach(jobs[id], 0); err != nil {
				return false
			}
			if err := dst.AttachMigrated(jobs[id], 0, false, 0); err != nil {
				return false
			}
			where[id] = dst
		}
		return a.NumJobs()+b.NumJobs() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIOStallUnderCachePressure(t *testing.T) {
	// An I/O-active job on a pressured node stalls on the disk; the same
	// job with ample idle memory does not.
	run := func(fillMB float64) (time.Duration, time.Duration) {
		n := newNode(t, 100, 4)
		ioJob := newJob(t, 1, 10*time.Second, 20)
		ioJob.SetIORate(5) // 5 MB/s against a 10 MB/s disk
		if err := n.Admit(ioJob, 0); err != nil {
			t.Fatal(err)
		}
		if fillMB > 0 {
			filler := newJob(t, 2, time.Hour, fillMB)
			if err := n.Admit(filler, 0); err != nil {
				t.Fatal(err)
			}
		}
		now := time.Duration(0)
		dt := 10 * time.Millisecond
		for i := 0; i < 30000 && ioJob.State() != job.StateDone; i++ {
			now += dt
			if _, err := n.Fold(dt, now, 1); err != nil {
				t.Fatal(err)
			}
		}
		w, err := ioJob.WallTime()
		if err != nil {
			t.Fatal(err)
		}
		return w, n.IOStall()
	}
	freeWall, freeStall := run(0) // 80 MB idle >> 16 MB cache need
	if freeStall != 0 {
		t.Errorf("ample cache should not stall, got %v", freeStall)
	}
	tightWall, tightStall := run(79) // idle ~1 MB: cache squeezed
	if tightStall == 0 {
		t.Error("squeezed cache should stall on the disk")
	}
	if tightWall <= freeWall {
		t.Errorf("squeezed run (%v) not slower than free run (%v)", tightWall, freeWall)
	}
}

func TestIOActiveJobsAndCacheAvailability(t *testing.T) {
	n := newNode(t, 100, 4)
	if n.IOActiveJobs() != 0 || n.CacheAvailability() != 1 {
		t.Error("empty node should have full cache availability")
	}
	j := newJob(t, 1, time.Hour, 90)
	j.SetIORate(2)
	if err := n.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	if n.IOActiveJobs() != 1 {
		t.Errorf("IOActiveJobs = %d", n.IOActiveJobs())
	}
	// Idle 10 MB against a 16 MB need: availability 10/16.
	if got, want := n.CacheAvailability(), 10.0/16; math.Abs(got-want) > 1e-9 {
		t.Errorf("cache availability = %v, want %v", got, want)
	}
}

func TestNegativeIORateClamped(t *testing.T) {
	j := newJob(t, 1, time.Second, 1)
	j.SetIORate(-5)
	if j.IORate() != 0 {
		t.Errorf("IORate = %v, want 0", j.IORate())
	}
}

func TestExpectMigrationHoldsCapacity(t *testing.T) {
	n := newNode(t, 100, 2)
	if err := n.ExpectMigration(1, 60); err != nil {
		t.Fatal(err)
	}
	if n.ExpectedCount() != 1 {
		t.Errorf("expected count = %d", n.ExpectedCount())
	}
	// The hold consumes memory and a slot.
	if got := n.IdleMB(); got != 40 {
		t.Errorf("idle = %v, want 40", got)
	}
	if !n.HasSlot() {
		t.Error("one hold on a 2-slot node should leave a slot")
	}
	if err := n.ExpectMigration(1, 10); err == nil {
		t.Error("duplicate hold should fail")
	}
	if err := n.ExpectMigration(2, 10); err != nil {
		t.Fatal(err)
	}
	if n.HasSlot() {
		t.Error("two holds should exhaust both slots")
	}
	if err := n.ExpectMigration(3, 10); err == nil {
		t.Error("hold past the CPU threshold should fail")
	}
	// Cancelling releases both the memory and the slot.
	if err := n.CancelExpected(1); err != nil {
		t.Fatal(err)
	}
	if err := n.CancelExpected(1); err == nil {
		t.Error("double cancel should fail")
	}
	if n.IdleMB() != 90 || !n.HasSlot() {
		t.Errorf("after cancel idle=%v hasSlot=%v", n.IdleMB(), n.HasSlot())
	}
}

func TestAttachConsumesHold(t *testing.T) {
	src := newNode(t, 1000, 4)
	dst := newNode(t, 100, 1)
	j := newJob(t, 7, time.Minute, 60)
	if err := src.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	if err := dst.ExpectMigration(j.ID, 60); err != nil {
		t.Fatal(err)
	}
	if err := src.Detach(j, time.Second); err != nil {
		t.Fatal(err)
	}
	// The destination has no free slot, but the held slot admits the
	// expected job.
	if err := dst.AttachMigrated(j, time.Second, false, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if dst.ExpectedCount() != 0 {
		t.Errorf("hold not consumed: %d", dst.ExpectedCount())
	}
	if dst.NumJobs() != 1 || dst.Memory().DemandMB() != 60 {
		t.Errorf("jobs=%d demand=%v", dst.NumJobs(), dst.Memory().DemandMB())
	}
}

// Regression: dropping a reservation must cancel expected-migration holds
// placed while it was in force, or a released lease keeps phantom memory
// demand and a consumed job slot forever.
func TestUnreserveCancelsIncomingHolds(t *testing.T) {
	n := newNode(t, 100, 2)
	n.SetReserved(true)
	if err := n.ExpectMigration(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := n.ExpectMigration(2, 30); err != nil {
		t.Fatal(err)
	}
	if n.ExpectedCount() != 2 {
		t.Fatalf("expected count = %d, want 2", n.ExpectedCount())
	}
	n.SetReserved(false)
	if n.ExpectedCount() != 0 {
		t.Errorf("expected count = %d after unreserve, want 0", n.ExpectedCount())
	}
	if n.IdleMB() != 100 {
		t.Errorf("idle = %v MB after unreserve, want all 100 back", n.IdleMB())
	}
	if !n.HasSlot() {
		t.Error("slots still consumed after unreserve")
	}
	// The in-flight job's landing then takes the holdless path.
	j := newJob(t, 1, 10*time.Second, 40)
	if err := j.Start(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.BeginMigration(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachMigrated(j, time.Second, true, 2*time.Second); err != nil {
		t.Errorf("holdless landing failed: %v", err)
	}
}

// Reserving again after the cancel must not resurrect old holds.
func TestUnreserveOnlyCancelsWhenPreviouslyReserved(t *testing.T) {
	n := newNode(t, 100, 4)
	if err := n.ExpectMigration(7, 20); err != nil {
		t.Fatal(err)
	}
	n.SetReserved(false) // was never reserved: holds must survive
	if n.ExpectedCount() != 1 {
		t.Errorf("expected count = %d, want hold preserved", n.ExpectedCount())
	}
}

func TestCrashDisplacesJobsAndBlocksWork(t *testing.T) {
	n := newNode(t, 100, 4)
	a := newJob(t, 1, 10*time.Second, 30)
	b := newJob(t, 2, 10*time.Second, 20)
	if err := n.Admit(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Admit(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.ExpectMigration(3, 10); err != nil {
		t.Fatal(err)
	}
	n.SetReserved(true)

	lost, err := n.Crash(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 2 || lost[0].ID != 1 || lost[1].ID != 2 {
		t.Fatalf("lost = %v, want jobs 1 and 2", lost)
	}
	for _, j := range lost {
		if j.State() != job.StateRunning {
			t.Errorf("job %d state = %v, caller decides its fate", j.ID, j.State())
		}
	}
	if !n.Down() || n.Reserved() || n.NumJobs() != 0 || n.ExpectedCount() != 0 {
		t.Errorf("post-crash state: down=%v reserved=%v jobs=%d expected=%d",
			n.Down(), n.Reserved(), n.NumJobs(), n.ExpectedCount())
	}
	if n.HasSlot() {
		t.Error("down node must offer no slots")
	}
	if err := n.Admit(newJob(t, 4, time.Second, 1), 6*time.Second); err == nil {
		t.Error("down node accepted a submission")
	}
	if err := n.ExpectMigration(5, 1); err == nil {
		t.Error("down node accepted a migration hold")
	}
	if _, err := n.Crash(6 * time.Second); err == nil {
		t.Error("double crash should fail")
	}

	if err := n.Recover(); err != nil {
		t.Fatal(err)
	}
	if n.Down() || !n.HasSlot() {
		t.Error("recovered node should be up with free slots")
	}
	if n.IdleMB() != 100 {
		t.Errorf("idle = %v MB after recovery, want 100", n.IdleMB())
	}
	if err := n.Recover(); err == nil {
		t.Error("recover while up should fail")
	}
	if err := n.Admit(newJob(t, 6, time.Second, 10), 7*time.Second); err != nil {
		t.Errorf("recovered node rejected work: %v", err)
	}
}

// Crash settles uncovered residency as queuing so the Section 5 identity
// holds for killed and requeued jobs.
func TestCrashSettlesResidencyAsQueue(t *testing.T) {
	n := newNode(t, 100, 4)
	j := newJob(t, 1, 10*time.Second, 10)
	if err := n.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Crash(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := j.Breakdown().Queue; got != 3*time.Second {
		t.Errorf("queue charge = %v, want 3s of uncovered residency", got)
	}
}
