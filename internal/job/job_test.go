package job

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func newTestJob(t *testing.T) *Job {
	t.Helper()
	j, err := New(1, "prog", 10*time.Second, []Phase{
		{EndFrac: 0.2, StartMB: 10, EndMB: 100},
		{EndFrac: 1.0, StartMB: 100, EndMB: 100},
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		cpu     time.Duration
		phases  []Phase
		submit  time.Duration
		wantErr bool
	}{
		{name: "valid no phases", cpu: time.Second},
		{name: "zero cpu", cpu: 0, wantErr: true},
		{name: "negative cpu", cpu: -time.Second, wantErr: true},
		{name: "negative submit", cpu: time.Second, submit: -1, wantErr: true},
		{
			name:    "phases out of order",
			cpu:     time.Second,
			phases:  []Phase{{EndFrac: 0.5}, {EndFrac: 0.3}, {EndFrac: 1}},
			wantErr: true,
		},
		{
			name:    "phases end short of 1",
			cpu:     time.Second,
			phases:  []Phase{{EndFrac: 0.5}},
			wantErr: true,
		},
		{
			name:    "negative demand",
			cpu:     time.Second,
			phases:  []Phase{{EndFrac: 1, StartMB: -5, EndMB: 10}},
			wantErr: true,
		},
		{
			name:   "valid phased",
			cpu:    time.Second,
			phases: []Phase{{EndFrac: 0.5, StartMB: 1, EndMB: 2}, {EndFrac: 1, StartMB: 2, EndMB: 2}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(1, "p", tt.cpu, tt.phases, tt.submit)
			if (err != nil) != tt.wantErr {
				t.Errorf("New error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestLifecycle(t *testing.T) {
	j := newTestJob(t)
	if j.State() != StatePending {
		t.Fatalf("initial state %v", j.State())
	}
	if err := j.Start(3, 7*time.Second); err != nil {
		t.Fatal(err)
	}
	if j.State() != StateRunning || j.Node() != 3 {
		t.Fatalf("state %v node %d after start", j.State(), j.Node())
	}
	// Two seconds of admission wait counted as queue time.
	if q := j.Breakdown().Queue; q != 2*time.Second {
		t.Errorf("queue after admission = %v, want 2s", q)
	}
	done, err := j.Account(4*time.Second, 500*time.Millisecond, time.Second, 13*time.Second)
	if err != nil || done {
		t.Fatalf("account: done=%v err=%v", done, err)
	}
	if j.Remaining() != 6*time.Second {
		t.Errorf("remaining = %v, want 6s", j.Remaining())
	}
	done, err = j.Account(6*time.Second, 0, 0, 20*time.Second)
	if err != nil || !done {
		t.Fatalf("final account: done=%v err=%v", done, err)
	}
	if j.State() != StateDone {
		t.Errorf("state %v after completion", j.State())
	}
	w, err := j.WallTime()
	if err != nil || w != 15*time.Second {
		t.Errorf("wall = %v, %v; want 15s", w, err)
	}
	s, err := j.Slowdown()
	if err != nil || s != 1.5 {
		t.Errorf("slowdown = %v, %v; want 1.5", s, err)
	}
}

func TestInvalidTransitions(t *testing.T) {
	j := newTestJob(t)
	if _, err := j.Account(time.Second, 0, 0, 0); err == nil {
		t.Error("account while pending should fail")
	}
	if err := j.BeginMigration(0); err == nil {
		t.Error("migrate while pending should fail")
	}
	if err := j.CompleteMigration(1, 0); err == nil {
		t.Error("land while pending should fail")
	}
	if err := j.Start(1, 6*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(2, 7*time.Second); err == nil {
		t.Error("double start should fail")
	}
	if _, err := j.DoneAt(); err == nil {
		t.Error("DoneAt before completion should fail")
	}
	if _, err := j.Slowdown(); err == nil {
		t.Error("Slowdown before completion should fail")
	}
}

func TestMigrationAccounting(t *testing.T) {
	j := newTestJob(t)
	if err := j.Start(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := j.BeginMigration(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	if j.State() != StateMigrating || j.Node() != -1 {
		t.Fatalf("state %v node %d mid-migration", j.State(), j.Node())
	}
	if _, err := j.Account(time.Second, 0, 0, 0); err == nil {
		t.Error("account mid-migration should fail")
	}
	if err := j.CompleteMigration(5, -time.Second); err == nil {
		t.Error("negative migration cost should fail")
	}
	if err := j.CompleteMigration(5, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if j.Node() != 5 || j.Migrations() != 1 {
		t.Errorf("node %d migrations %d", j.Node(), j.Migrations())
	}
	if m := j.Breakdown().Migration; m != 3*time.Second {
		t.Errorf("migration time = %v, want 3s", m)
	}
}

func TestAccountFold(t *testing.T) {
	// newTestJob demands 10 s of CPU; started at its 5 s submission, it
	// enters the fold with nothing charged.
	running := func(t *testing.T) *Job {
		j := newTestJob(t)
		if err := j.Start(0, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		return j
	}
	cases := []struct {
		name             string
		prep             func(t *testing.T) *Job
		cpu, page, queue time.Duration
		wantErr          bool
	}{
		{name: "charges", prep: running, cpu: 4 * time.Second, page: time.Second, queue: 2 * time.Second},
		{name: "zero", prep: running},
		{name: "one short of demand", prep: running, cpu: 10*time.Second - 1},
		{name: "negative cpu", prep: running, cpu: -1, wantErr: true},
		{name: "negative page", prep: running, cpu: time.Second, page: -1, wantErr: true},
		{name: "negative queue", prep: running, cpu: time.Second, queue: -1, wantErr: true},
		{name: "reaches demand", prep: running, cpu: 10 * time.Second, wantErr: true},
		{name: "passes demand", prep: running, cpu: 11 * time.Second, wantErr: true},
		{name: "pending", prep: newTestJob, cpu: time.Second, wantErr: true},
		{name: "migrating", prep: func(t *testing.T) *Job {
			j := running(t)
			if err := j.BeginMigration(6 * time.Second); err != nil {
				t.Fatal(err)
			}
			return j
		}, cpu: time.Second, wantErr: true},
		{name: "done", prep: func(t *testing.T) *Job {
			j := running(t)
			if done, err := j.Account(10*time.Second, 0, 0, 15*time.Second); err != nil || !done {
				t.Fatalf("account: done=%v err=%v", done, err)
			}
			return j
		}, cpu: time.Second, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := c.prep(t)
			before := j.Snapshot()
			err := j.AccountFold(c.cpu, c.page, c.queue)
			if c.wantErr {
				if err == nil {
					t.Fatal("AccountFold accepted the charge")
				}
				if j.Snapshot() != before {
					t.Fatal("a refused AccountFold changed the job")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := before.acct
			want.CPU += c.cpu
			want.Page += c.page
			want.Queue += c.queue
			if j.Breakdown() != want || j.CPUDone() != before.cpuDone+c.cpu || j.State() != StateRunning {
				t.Fatalf("after fold: %+v done %v state %v, want %+v done %v running",
					j.Breakdown(), j.CPUDone(), j.State(), want, before.cpuDone+c.cpu)
			}
		})
	}
}

// TestAccountFoldMatchesAccount pins AccountFold as the exact closed form
// of sequential Account calls: folding the sums of a run of uneven quanta
// leaves the same job state as accounting them one at a time.
func TestAccountFoldMatchesAccount(t *testing.T) {
	seq, folded := newTestJob(t), newTestJob(t)
	for _, j := range []*Job{seq, folded} {
		if err := j.Start(0, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var cpu, page, queue time.Duration
	for i := time.Duration(1); i <= 100; i++ {
		c, p, q := 33*time.Millisecond+i*7, i*i*1013, 5*time.Millisecond-i*11
		if done, err := seq.Account(c, p, q, 5*time.Second+i*10*time.Millisecond); err != nil || done {
			t.Fatalf("quantum %d: done=%v err=%v", i, done, err)
		}
		cpu, page, queue = cpu+c, page+p, queue+q
	}
	for i := 0; i < 2; i++ { // two folds of halves add up like one
		if err := folded.AccountFold(cpu/2+time.Duration(i)*(cpu%2), page/2+time.Duration(i)*(page%2), queue/2+time.Duration(i)*(queue%2)); err != nil {
			t.Fatal(err)
		}
	}
	if seq.Snapshot() != folded.Snapshot() {
		t.Fatalf("sequential %+v, folded %+v", seq.Snapshot(), folded.Snapshot())
	}
}

func TestMemoryDemandInterpolation(t *testing.T) {
	j := newTestJob(t)
	tests := []struct {
		frac float64
		want float64
	}{
		{0, 10},
		{0.1, 55},
		{0.2, 100},
		{0.5, 100},
		{1.0, 100},
		{1.5, 100}, // clamped
		{-1, 10},   // clamped
	}
	for _, tt := range tests {
		if got := j.MemoryDemandAtMB(tt.frac); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("demand(%v) = %v, want %v", tt.frac, got, tt.want)
		}
	}
	if got := j.PeakMemoryMB(); got != 100 {
		t.Errorf("peak = %v, want 100", got)
	}
}

func TestMemoryDemandNoPhases(t *testing.T) {
	j, err := New(1, "p", time.Second, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.MemoryDemandMB() != 0 || j.PeakMemoryMB() != 0 {
		t.Error("phase-less job should have zero demand")
	}
}

func TestMemoryDemandTracksProgress(t *testing.T) {
	j := newTestJob(t)
	if err := j.Start(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := j.MemoryDemandMB(); got != 10 {
		t.Errorf("initial demand = %v, want 10", got)
	}
	if _, err := j.Account(2*time.Second, 0, 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// 20% progress: end of ramp.
	if got := j.MemoryDemandMB(); math.Abs(got-100) > 1e-9 {
		t.Errorf("demand at 20%% = %v, want 100", got)
	}
}

func TestAgeAndStateString(t *testing.T) {
	j := newTestJob(t)
	if j.Age(100*time.Second) != 0 {
		t.Error("pending job should have zero age")
	}
	if err := j.Start(0, 6*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := j.Age(10 * time.Second); got != 4*time.Second {
		t.Errorf("age = %v, want 4s", got)
	}
	for s, want := range map[State]string{
		StatePending: "pending", StateRunning: "running",
		StateMigrating: "migrating", StateDone: "done", State(99): "state(99)",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s, want)
		}
	}
}

func TestReclassifyQueue(t *testing.T) {
	j := newTestJob(t)
	if err := j.Start(0, 7*time.Second); err != nil { // 2s of queue charged
		t.Fatal(err)
	}
	if err := j.ReclassifyQueue(-time.Second); err == nil {
		t.Error("negative reclassify should fail")
	}
	if err := j.ReclassifyQueue(3 * time.Second); err == nil {
		t.Error("reclassify beyond queue balance should fail")
	}
	if err := j.ReclassifyQueue(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	b := j.Breakdown()
	if b.Queue != 1500*time.Millisecond || b.Migration != 500*time.Millisecond {
		t.Errorf("breakdown after reclassify = %+v", b)
	}
	if b.Total() != 2*time.Second {
		t.Errorf("reclassify changed total: %v", b.Total())
	}
}

func TestAddFrozenQueue(t *testing.T) {
	j := newTestJob(t)
	if err := j.AddFrozenQueue(time.Second); err == nil {
		t.Error("frozen charge while pending should fail")
	}
	if err := j.Start(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := j.BeginMigration(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := j.AddFrozenQueue(-1); err == nil {
		t.Error("negative frozen charge should fail")
	}
	if err := j.AddFrozenQueue(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if q := j.Breakdown().Queue; q != 2*time.Second {
		t.Errorf("queue = %v, want 2s", q)
	}
}

func TestBreakdownTotalAndAdd(t *testing.T) {
	b := Breakdown{CPU: 1, Page: 2, Queue: 3, Migration: 4}
	if b.Total() != 10 {
		t.Errorf("Total = %v, want 10", b.Total())
	}
	var sum Breakdown
	sum.Add(b)
	sum.Add(b)
	if sum.Total() != 20 || sum.CPU != 2 {
		t.Errorf("Add accumulated %+v", sum)
	}
}

// Property: however CPU service is sliced into accounting calls, total
// recorded CPU equals demand at completion and slowdown >= 1 whenever
// wall time is measured from the start (no pre-admission wait).
func TestAccountingConservationProperty(t *testing.T) {
	f := func(slices []uint8) bool {
		demand := 10 * time.Second
		j, err := New(1, "p", demand, nil, 0)
		if err != nil {
			return false
		}
		if err := j.Start(0, 0); err != nil {
			return false
		}
		now := time.Duration(0)
		for _, s := range slices {
			cpu := time.Duration(s) * time.Millisecond
			now += cpu
			done, err := j.Account(cpu, 0, 0, now)
			if err != nil {
				return false
			}
			if done {
				break
			}
		}
		if j.State() != StateDone {
			// Drive to completion.
			rem := j.Remaining()
			now += rem
			if done, err := j.Account(rem, 0, 0, now); err != nil || !done {
				return false
			}
		}
		if j.Breakdown().CPU < demand {
			return false
		}
		s, err := j.Slowdown()
		return err == nil && s >= 1.0-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: memory demand interpolation stays within [min, peak] of the
// phase endpoints for any progress fraction.
func TestDemandBoundsProperty(t *testing.T) {
	j := newTestJob(t)
	f := func(frac float64) bool {
		d := j.MemoryDemandAtMB(math.Mod(math.Abs(frac), 2))
		return d >= 10-1e-9 && d <= 100+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
