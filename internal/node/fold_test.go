package node

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/memory"
	"vrcluster/internal/obs"
)

// watched installs a no-op pressure watcher, so lastPressured tracks the
// node's pressure transitions the way it does inside a cluster.
func watched(n *Node) *Node {
	n.SetPressureWatcher(func(bool) {})
	return n
}

// pressuredPair builds two identical nodes loaded past their user memory
// with ramping-demand jobs, so every tick runs the stall-feedback regime.
func pressuredPair(t *testing.T) (dense, batched *Node) {
	t.Helper()
	mk := func() *Node {
		n := watched(newNode(t, 100, 4))
		for id, ph := range [][]job.Phase{
			{{EndFrac: 0.8, StartMB: 30, EndMB: 70}, {EndFrac: 1, StartMB: 70, EndMB: 70}},
			{{EndFrac: 0.6, StartMB: 40, EndMB: 90}, {EndFrac: 1, StartMB: 90, EndMB: 50}},
		} {
			j, err := job.New(id, "ramp", 30*time.Second, ph, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Admit(j, 0); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	dense, batched = mk(), mk()
	// Warm both onto the ramp until the node is pressured.
	q := 10 * time.Millisecond
	now := time.Duration(0)
	for !dense.Pressured() {
		now += q
		for _, n := range []*Node{dense, batched} {
			if _, err := n.tick(q, now); err != nil {
				t.Fatal(err)
			}
		}
		if now > time.Minute {
			t.Fatal("nodes never became pressured")
		}
	}
	if !batched.Pressured() {
		t.Fatal("twin nodes diverged during warmup")
	}
	return dense, batched
}

// snapState captures everything a quantum can touch: the node's full
// snapshot (memory registry and total, coverage, demand caches,
// lastPressured, CPU and stall accumulators, reserved jobs) with the job
// pointers swapped for the jobs' own snapshots, since twin nodes hold
// distinct but identically built jobs.
func snapState(n *Node) (Snapshot, []job.Snapshot) {
	s := n.Snapshot()
	jobs := make([]job.Snapshot, len(s.jobs))
	for i, j := range s.jobs {
		jobs[i] = j.Snapshot()
	}
	s.jobs = nil
	return s, jobs
}

// requireSameState fails unless twin nodes hold the same node and job
// state and, when they trace, emitted the same events.
func requireSameState(t *testing.T, dense, batched *Node, what string) {
	t.Helper()
	ds, dj := snapState(dense)
	bs, bj := snapState(batched)
	if !reflect.DeepEqual(dense.tr.Events(), batched.tr.Events()) {
		t.Fatalf("%s: events diverge:\n dense %+v\n batch %+v", what, dense.tr.Events(), batched.tr.Events())
	}
	if !reflect.DeepEqual(dj, bj) {
		t.Fatalf("%s: job state diverges:\n dense %+v\n batch %+v", what, dj, bj)
	}
	if !reflect.DeepEqual(ds, bs) {
		t.Fatalf("%s: node state diverges:\n dense %+v\n batch %+v", what, ds, bs)
	}
}

// requireSameDone fails unless twin nodes completed the same jobs, in the
// same order and to the same job state.
func requireSameDone(t *testing.T, dense, batched []*job.Job, what string) {
	t.Helper()
	if len(dense) != len(batched) {
		t.Fatalf("%s: dense completed %d jobs, batched %d", what, len(dense), len(batched))
	}
	for i := range dense {
		if d, b := dense[i].Snapshot(), batched[i].Snapshot(); dense[i].ID != batched[i].ID || !reflect.DeepEqual(d, b) {
			t.Fatalf("%s: completed job %d diverges:\n dense %d %+v\n batch %d %+v",
				what, i, dense[i].ID, d, batched[i].ID, b)
		}
	}
}

// mustFold folds the k quanta of n due from now and returns the jobs that
// completed, failing the test on an error.
func mustFold(t *testing.T, n *Node, dt, now time.Duration, k int64) []*job.Job {
	t.Helper()
	done, err := n.Fold(dt, now, k)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// tickToDone advances n by up to k quanta due at now, now+dt, … one
// reference tick at a time, stopping after the first tick that completes a
// job. It reports the ticks made and the jobs that tick completed.
func tickToDone(t *testing.T, n *Node, dt, now time.Duration, k int64) (ticks int64, done []*job.Job) {
	t.Helper()
	for ticks < k && len(done) == 0 {
		var err error
		if done, err = n.tick(dt, now+time.Duration(ticks)*dt); err != nil {
			t.Fatal(err)
		}
		ticks++
	}
	return ticks, done
}

// tickDense advances n by the k quanta due at now, now+dt, … one reference
// tick at a time, failing on any completion (the stretch was meant to be
// free of them). It reports how many pressure transitions the ticks passed.
func tickDense(t *testing.T, n *Node, dt, now time.Duration, k int64) (flips int) {
	t.Helper()
	was := n.Pressured()
	for s := int64(0); s < k; s++ {
		done, err := n.tick(dt, now+time.Duration(s)*dt)
		if err != nil {
			t.Fatal(err)
		}
		if len(done) > 0 {
			t.Fatalf("job completed at tick %d of a %d-quantum stretch", s, k)
		}
		if p := n.Pressured(); p != was {
			was = p
			flips++
		}
	}
	return flips
}

// land puts j on n at time at: admitted fresh when ticks is zero, else
// landed as a migration after up to ticks quanta of q on a scratch donor
// node, so it arrives with progress and an empty phase cursor.
func land(t *testing.T, n *Node, j *job.Job, q time.Duration, ticks int, at time.Duration) {
	t.Helper()
	if ticks == 0 {
		if err := n.Admit(j, at); err != nil {
			t.Fatal(err)
		}
		return
	}
	donor := newNode(t, 1000, 1)
	if err := donor.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	s := 0
	for s < ticks && donor.CompletionFloor(q, 1) > 0 { // stop short of completing
		s++
		if _, err := donor.tick(q, time.Duration(s)*q); err != nil {
			t.Fatal(err)
		}
	}
	if err := donor.Detach(j, time.Duration(s)*q); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachMigrated(j, 0, false, at); err != nil {
		t.Fatal(err)
	}
}

// TestFoldMatchesDense pins the fold bit-identical to sequential ticks
// across several consecutive stretches of a pressured, ramping node.
func TestFoldMatchesDense(t *testing.T) {
	dense, batched := pressuredPair(t)
	q := 10 * time.Millisecond
	now := dense.covered[0] + q
	const k = 50
	for round := 0; round < 6; round++ {
		tickDense(t, dense, q, now, k)
		if done := mustFold(t, batched, q, now, k); len(done) > 0 {
			t.Fatalf("fold completed %d jobs", len(done))
		}
		now += k * q
		requireSameState(t, dense, batched, "after stretch")
	}
}

// TestFoldRegimes drives Fold across pressure crossings in both
// directions, through a ramp whose I/O stall moves with the demand total
// while unpressured, and over partial residency in the first quantum.
// Every case must leave the state k dense ticks leave, and must actually
// exercise its regime.
func TestFoldRegimes(t *testing.T) {
	const q = 10 * time.Millisecond
	type admit struct {
		cpu    time.Duration
		phases []job.Phase
		ioRate float64
		at     time.Duration
		ran    int // quanta run elsewhere before landing here as a migration
	}
	flat := func(mb float64) []job.Phase { return []job.Phase{{EndFrac: 1, StartMB: mb, EndMB: mb}} }
	ramp := func(from, to, until float64) []job.Phase {
		return []job.Phase{{EndFrac: until, StartMB: from, EndMB: to}, {EndFrac: 1, StartMB: to, EndMB: to}}
	}
	cases := []struct {
		name string
		jobs []admit
		// warm dense ticks run on both nodes before the stretch, which
		// starts with the tick due at now.
		warm  int64
		now   time.Duration
		k     int64
		flips int // pressure transitions the stretch must pass, at least
		check func(t *testing.T, n *Node)
		// stretch, when set, picks k from a probe twin instead.
		stretch func(t *testing.T, probe *Node) int64
	}{
		{
			name: "unpressured to pressured",
			jobs: []admit{
				{cpu: time.Minute, phases: flat(60)},
				{cpu: time.Minute, phases: ramp(20, 80, 0.5)},
			},
			warm: 1, now: 2 * q, k: 2500, flips: 1,
		},
		{
			name: "pressured to unpressured",
			jobs: []admit{
				{cpu: 2 * time.Minute, phases: flat(60)},
				{cpu: 2 * time.Minute, phases: ramp(60, 10, 0.2)},
			},
			warm: 1, now: 2 * q, k: 5000, flips: 1,
		},
		{
			name: "io-active ramp while unpressured",
			jobs: []admit{
				{cpu: time.Minute, phases: ramp(20, 40, 0.2), ioRate: 4},
				{cpu: time.Minute, phases: ramp(30, 45, 0.2), ioRate: 2},
			},
			warm: 1, now: 2 * q, k: 3000,
			check: func(t *testing.T, n *Node) {
				if n.Pressured() || n.IOStall() == 0 {
					t.Fatalf("stretch should stay unpressured yet stall on the cache: pressured=%v ioStall=%v",
						n.Pressured(), n.IOStall())
				}
			},
		},
		{
			name: "partially resident first quantum",
			jobs: []admit{
				{cpu: time.Minute, phases: flat(30)},
				{cpu: time.Minute, phases: ramp(10, 50, 0.3), ioRate: 1, at: 2*q + q/3},
				{cpu: time.Minute, phases: flat(20), at: 3 * q}, // resident for none of it
				// Lands with progress and an empty phase cursor at the
				// stretch's first instant: the first tick must skip it.
				{cpu: time.Minute, phases: ramp(10, 40, 0.5), at: 3 * q, ran: 100},
			},
			warm: 2, now: 3 * q, k: 400,
		},
		{
			// Demand stays above user memory throughout (60+50 at the
			// least), so the ramping job steps the replayed total under
			// pressure until it leaves its ramp for the flat phase and the
			// node's ticks fold as runs.
			name: "pressured ramp into flat",
			jobs: []admit{
				{cpu: time.Minute, phases: flat(60)},
				{cpu: time.Minute, phases: ramp(50, 80, 0.05)},
			},
			warm: 1, now: 2 * q, k: 5000,
			check: pressuredPast(1, 0.05),
		},
		{
			// metis's shape: down to a trough, back up, then flat, with
			// demand never below 60+50.
			name: "pressured down-ramp into up-ramp",
			jobs: []admit{
				{cpu: time.Minute, phases: flat(60)},
				{cpu: time.Minute, phases: []job.Phase{
					{EndFrac: 0.02, StartMB: 90, EndMB: 50},
					{EndFrac: 0.04, StartMB: 50, EndMB: 85},
					{EndFrac: 1, StartMB: 85, EndMB: 85},
				}},
			},
			warm: 1, now: 2 * q, k: 5000,
			check: pressuredPast(1, 0.04),
		},
		{
			// Unpressured and without I/O, so the ramps fold as ramp runs,
			// but the total sits 0.001 MB below user memory while each
			// tick's first step (the middle job's) lifts it past by more
			// and the last step brings it back. A tick with the crossing
			// inside it is made in full, yet no tick starts pressured, so
			// no job pages.
			name: "ramp run crossing user memory at a middle job",
			jobs: []admit{
				{cpu: time.Minute, phases: flat(39.999)},
				{cpu: time.Minute, phases: ramp(10, 50, 0.5)},
				{cpu: time.Minute, phases: ramp(50, 10, 0.5)},
			},
			warm: 1, now: 2 * q, k: 2000,
			check: func(t *testing.T, n *Node) {
				if n.Pressured() || n.Memory().DemandMB() <= 99.99 || paged(n) {
					t.Fatalf("stretch should end just below user memory without paging: pressured=%v demand=%v paged=%v",
						n.Pressured(), n.Memory().DemandMB(), paged(n))
				}
			},
		},
		{
			// metis's ranged profile below user memory: the falling ramp's
			// run ends where its cursor does, and the rising one's next.
			name: "unpressured falling ramp ending at a cursor exit",
			jobs: []admit{
				{cpu: time.Minute, phases: flat(20)},
				{cpu: time.Minute, phases: []job.Phase{
					{EndFrac: 0.02, StartMB: 60, EndMB: 20},
					{EndFrac: 0.04, StartMB: 20, EndMB: 55},
					{EndFrac: 1, StartMB: 55, EndMB: 55},
				}},
			},
			warm: 1, now: 2 * q, k: 1000,
			check: func(t *testing.T, n *Node) {
				if p := n.JobAt(1).Progress(); n.Pressured() || paged(n) || p <= 0.04 {
					t.Fatalf("stretch should stay unpressured past progress 0.04: pressured=%v paged=%v progress=%v",
						n.Pressured(), paged(n), p)
				}
			},
		},
		{
			// The stretch ends on the last tick the ramp's cursor covers,
			// so the ramp run's cursor bound and the stretch end coincide.
			name: "ramp run ending exactly at k",
			jobs: []admit{
				{cpu: time.Minute, phases: flat(20)},
				{cpu: time.Minute, phases: ramp(10, 40, 0.3)},
			},
			warm: 1, now: 2 * q,
			stretch: func(t *testing.T, probe *Node) int64 {
				until, k := probe.cursor[1].Until, int64(0)
				for now := 2 * q; ; now += q {
					if _, err := probe.tick(q, now); err != nil {
						t.Fatal(err)
					}
					if probe.JobAt(1).CPUDone() > until {
						return k
					}
					k++
				}
			},
			check: func(t *testing.T, n *Node) {
				if n.cursor[1].Flat() || !n.cursor[1].Covers(n.JobAt(1).CPUDone()) {
					t.Fatalf("stretch should end inside the ramp's cursor: %+v at service %v",
						n.cursor[1], n.JobAt(1).CPUDone())
				}
			},
		},
		{
			// A one-quantum stretch leaves a migrant that landed at its
			// instant untouched.
			name: "migrant landing at the only tick",
			jobs: []admit{
				{cpu: time.Minute, phases: flat(30)},
				{cpu: time.Minute, phases: flat(20), at: 2 * q, ran: 100},
			},
			warm: 1, now: 2 * q, k: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mk := func() *Node {
				n := watched(newNode(t, 100, 4))
				tick := int64(1)
				for id, a := range c.jobs {
					for ; tick <= c.warm && time.Duration(tick)*q < a.at; tick++ {
						if _, err := n.tick(q, time.Duration(tick)*q); err != nil {
							t.Fatal(err)
						}
					}
					j, err := job.New(id, "regime", a.cpu, a.phases, 0)
					if err != nil {
						t.Fatal(err)
					}
					j.SetIORate(a.ioRate)
					land(t, n, j, q, a.ran, a.at)
				}
				for ; tick <= c.warm; tick++ {
					if _, err := n.tick(q, time.Duration(tick)*q); err != nil {
						t.Fatal(err)
					}
				}
				return n
			}
			dense, folded := mk(), mk()
			requireSameState(t, dense, folded, "before the stretch")
			if c.stretch != nil {
				c.k = c.stretch(t, mk())
			}
			if floor := dense.CompletionFloor(q, c.k); floor != c.k {
				t.Fatalf("completion floor %d below the case's stretch %d", floor, c.k)
			}
			if flips := tickDense(t, dense, q, c.now, c.k); flips < c.flips {
				t.Fatalf("dense stretch passed %d pressure transitions, want at least %d", flips, c.flips)
			}
			if done := mustFold(t, folded, q, c.now, c.k); len(done) > 0 {
				t.Fatalf("fold completed %d jobs", len(done))
			}
			requireSameState(t, dense, folded, "after the stretch")
			if c.check != nil {
				c.check(t, folded)
			}
		})
	}
}

// paged reports whether any resident job of n has been charged paging time.
func paged(n *Node) bool {
	for _, j := range n.jobs {
		if j.Breakdown().Page > 0 {
			return true
		}
	}
	return false
}

// pressuredPast checks that a stretch ended pressured with resident job
// idx's progress past frac, so it crossed the phase boundary there.
func pressuredPast(idx int, frac float64) func(*testing.T, *Node) {
	return func(t *testing.T, n *Node) {
		t.Helper()
		if p := n.JobAt(idx).Progress(); !n.Pressured() || p <= frac {
			t.Fatalf("stretch should end pressured past progress %v: pressured=%v progress=%v", frac, n.Pressured(), p)
		}
	}
}

// TestFoldAfterRewind restores a node, taken mid-ramp, after it has moved
// on into the flat phase, and requires the stretch that follows to match a
// twin that never moved on, both folded and ticked densely. Restore keeps
// the job's flat-phase cursor, since the job stays at its index, so only
// the cursor's From bound tells the node the rewound service left it.
func TestFoldAfterRewind(t *testing.T) {
	const q = 10 * time.Millisecond
	mk := func() *Node {
		n := watched(newNode(t, 200, 4))
		for id, ph := range [][]job.Phase{
			{{EndFrac: 1, StartMB: 40, EndMB: 40}},
			{{EndFrac: 0.1, StartMB: 30, EndMB: 90}, {EndFrac: 1, StartMB: 90, EndMB: 90}},
		} {
			j, err := job.New(id, "rewind", 20*time.Second, ph, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Admit(j, 0); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	const mid, k = 100, 1000
	twin, rewound := mk(), mk()
	tickDense(t, twin, q, q, mid)
	tickDense(t, rewound, q, q, mid)
	ramp := rewound.JobAt(1)
	if p := ramp.Progress(); p <= 0 || p >= 0.1 {
		t.Fatalf("snapshot should be mid-ramp, progress %v", p)
	}
	if floor := twin.CompletionFloor(q, k); floor != k {
		t.Fatalf("completion floor %d below the stretch %d", floor, k)
	}
	snap := rewound.Snapshot()
	jobs := []job.Snapshot{rewound.JobAt(0).Snapshot(), ramp.Snapshot()}
	restore := func() {
		rewound.Restore(snap)
		for i, js := range jobs {
			rewound.JobAt(i).Restore(js)
		}
	}
	now := time.Duration(mid+1) * q
	mustFold(t, rewound, q, now, k)
	if p := ramp.Progress(); p <= 0.1 {
		t.Fatalf("the node should have moved on into the flat phase, progress %v", p)
	}

	restore()
	tickDense(t, twin, q, now, k)
	mustFold(t, rewound, q, now, k)
	requireSameState(t, twin, rewound, "fold after the rewind")

	restore()
	tickDense(t, rewound, q, now, k)
	requireSameState(t, twin, rewound, "dense ticks after the rewind")
}

// TestFoldAcrossQuantumChange folds a stretch, then one at twice the
// quantum: the second must not resume the first's quantum and charges.
func TestFoldAcrossQuantumChange(t *testing.T) {
	dense, folded := pressuredPair(t)
	q := 10 * time.Millisecond
	now := dense.covered[0] + q
	const k = 40
	tickDense(t, dense, q, now, k)
	mustFold(t, folded, q, now, k)
	requireSameState(t, dense, folded, "after the first stretch")
	q2 := 2 * q
	now += (k-1)*q + q2
	if floor := dense.CompletionFloor(q2, k); floor != k {
		t.Fatalf("completion floor %d below the stretch %d", floor, k)
	}
	tickDense(t, dense, q2, now, k)
	mustFold(t, folded, q2, now, k)
	requireSameState(t, dense, folded, "after the stretch at twice the quantum")
}

// TestFoldRejectsBadQuantum pins the fold's quantum validation.
func TestFoldRejectsBadQuantum(t *testing.T) {
	n := newNode(t, 100, 4)
	if err := n.Admit(newJob(t, 1, time.Second, 10), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Fold(0, time.Second, 3); err == nil {
		t.Fatal("zero quantum accepted")
	}
}

// TestFoldRejectsEarlyCompletion pins the fold's contract: a job may
// complete only on its last quantum, and a stretch that would complete one
// earlier fails instead of booking the quanta after it.
func TestFoldRejectsEarlyCompletion(t *testing.T) {
	n := newNode(t, 100, 4)
	if err := n.Admit(newJob(t, 1, 15*time.Millisecond, 10), 0); err != nil {
		t.Fatal(err)
	}
	const q = 10 * time.Millisecond
	if _, err := n.Fold(q, q, 3); err == nil {
		t.Fatal("a fold that completes a job on its second of three quanta succeeded")
	}
	m := newNode(t, 100, 4)
	j := newJob(t, 1, 15*time.Millisecond, 10)
	if err := m.Admit(j, 0); err != nil {
		t.Fatal(err)
	}
	if done := mustFold(t, m, q, q, 2); len(done) != 1 || done[0] != j || m.NumJobs() != 0 {
		t.Fatalf("a fold that completes a job on its last quantum returned %v, %d resident", done, m.NumJobs())
	}
	if at, err := j.DoneAt(); err != nil || at != 2*q {
		t.Fatalf("job done at %v (%v), want %v", at, err, 2*q)
	}
}

// TestCompletionFloorEarlyExitAtBoundary pins the near-done fast path: with
// a resident job within one quantum of completion at maximal progress the
// floor is exactly zero, and one tick of slack away it is exactly one.
func TestCompletionFloorEarlyExitAtBoundary(t *testing.T) {
	q := 10 * time.Millisecond
	// Single resident job at speed factor 1: exec == q, so maxCPU == q+1.
	maxCPU := time.Duration(q.Seconds()*float64(time.Second)) + 1
	cases := []struct {
		remaining time.Duration
		want      int64
	}{
		{maxCPU, 0},        // (maxCPU-1)/maxCPU == 0: could finish next tick
		{maxCPU - 1, 0},    // even closer
		{maxCPU + 1, 1},    // exactly one provably non-final tick
		{2*maxCPU + 1, 2},  // two
		{100 * maxCPU, 99}, // deep interior
	}
	for _, c := range cases {
		n := newNode(t, 1000, 4)
		if err := n.Admit(newJob(t, 1, c.remaining, 10), 0); err != nil {
			t.Fatal(err)
		}
		if got := n.CompletionFloor(q, 1<<30); got != c.want {
			t.Fatalf("CompletionFloor(remaining=%v) = %d, want %d", c.remaining, got, c.want)
		}
	}
	// Early exit must trigger regardless of position: a near-done job after
	// a long-running one still floors the node at zero.
	n := newNode(t, 1000, 4)
	if err := n.Admit(newJob(t, 1, time.Hour, 10), 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Admit(newJob(t, 2, 3*time.Millisecond, 10), 0); err != nil {
		t.Fatal(err)
	}
	if got := n.CompletionFloor(q, 1<<30); got != 0 {
		t.Fatalf("CompletionFloor with near-done second job = %d, want 0", got)
	}
}

// FuzzFoldMatchesTick is the differential check behind Fold: from a drawn
// node and job mix, Fold must leave exactly the node and job state, the
// completed jobs and the events that sequential reference ticks leave. The
// drawn mode picks the stretch: one Fold of up to k quanta that may
// complete jobs on its last (mode 0 takes k no larger than the completion
// floor, mode 1 stops at the first tick that completes a job), or a chain
// of k one-quantum Folds that may complete jobs anywhere, as the cluster
// makes them (mode 2). testdata/fuzz holds seeds for the regimes: flat,
// pressured, pressure crossings either way, an I/O-active ramp, partial
// residency in the first quantum, and completions.
func FuzzFoldMatchesTick(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := draw(data)
		dense, folded, q, now, k, mode := drawStretch(t, &d)
		if mode < 2 {
			ticks, done := tickToDone(t, dense, q, now, k)
			requireSameDone(t, done, mustFold(t, folded, q, now, ticks), "after the stretch")
			requireSameState(t, dense, folded, "after the stretch")
			return
		}
		for s := int64(0); s < k; s++ {
			at := now + time.Duration(s)*q
			done, err := dense.tick(q, at)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("after quantum %d", s+1)
			requireSameDone(t, done, mustFold(t, folded, q, at, 1), what)
			if len(done) > 0 || s == k-1 {
				requireSameState(t, dense, folded, what)
			}
		}
	})
}

// FuzzFoldResume checks the fold's resume: one drawn stretch is split into
// two to four Folds, each starting where the last ended, so a Fold resumes
// from the state the last one left unless a status mutator ran in between.
// Between some of them a drawn mutator runs on both twins: a reservation
// flip, a migration hold placed or cancelled, a change of remote backing,
// the admission of a new job, or one quantum (a reference tick on the dense
// twin, a one-quantum Fold on the other). A part ends early after a
// quantum that completes a job, and the next part carries on from there.
// The twin that ticks densely throughout must be left in the same state
// after every part. The input's first 20 bytes draw the split and the
// mutators, the rest the stretch as in FuzzFoldMatchesTick; testdata/fuzz
// holds a seed per mutator.
func FuzzFoldResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := draw(data)
		parts := 2 + d.n(3)
		var cuts [3]struct{ frac, op, arg int }
		for i := range cuts {
			cuts[i].frac, cuts[i].op, cuts[i].arg = d.n(100), d.n(6), d.n(1<<16)
		}
		dense, folded, q, now, k, mode := drawStretch(t, &d)
		for part := 0; k > 0; part++ {
			kp := k
			if part < parts-1 {
				kp = min(k, 1+k*int64(cuts[part].frac)/100)
			}
			ticks, done := tickToDone(t, dense, q, now, kp)
			what := fmt.Sprintf("after part %d", part+1)
			requireSameDone(t, done, mustFold(t, folded, q, now, ticks), what)
			now += time.Duration(ticks) * q
			k -= ticks
			requireSameState(t, dense, folded, what)
			if part >= parts-1 || k == 0 {
				continue
			}
			c := cuts[part]
			if c.op == 5 { // the quantum due at now
				done, err := dense.tick(q, now)
				if err != nil {
					t.Fatal(err)
				}
				requireSameDone(t, done, mustFold(t, folded, q, now, 1), "after the quantum between parts")
				now += q
				k--
			} else {
				var errs [2]error
				for i, n := range []*Node{dense, folded} {
					errs[i] = mutate(t, n, c.op, c.arg, part, q, now)
				}
				if (errs[0] == nil) != (errs[1] == nil) {
					t.Fatalf("mutator %d after part %d: dense %v, folded %v", c.op, part+1, errs[0], errs[1])
				}
			}
			requireSameState(t, dense, folded, fmt.Sprintf("after mutator %d", c.op))
			if mode == 0 {
				// An admitted job can complete before the rest of the
				// stretch; mode 0 keeps every part completion-free.
				k = dense.CompletionFloor(q, k)
			}
		}
	})
}

// mutate applies status mutator op with argument arg to n between the
// parts of a resumed stretch; now is the instant the next tick is due.
func mutate(t *testing.T, n *Node, op, arg, part int, q, now time.Duration) error {
	t.Helper()
	switch op {
	case 1:
		n.SetReserved(!n.Reserved())
	case 2:
		if n.ExpectedCount() > 0 {
			for id := 200; id < 200+part; id++ {
				if _, held := n.incoming[id]; held {
					return n.CancelExpected(id)
				}
			}
		}
		return n.ExpectMigration(200+part, float64(arg%80))
	case 3:
		n.Memory().SetRemoteBacking(time.Duration(arg%3) * time.Millisecond)
	case 4:
		// Admitted inside the quantum the next tick closes, or at its end.
		j, err := job.New(100+part, "admit", time.Duration(1+arg%120)*500*time.Millisecond, []job.Phase{
			{EndFrac: 0.5, StartMB: float64(arg % 80), EndMB: float64(arg / 80 % 80)},
			{EndFrac: 1, StartMB: float64(arg / 80 % 80), EndMB: float64(arg / 80 % 80)},
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if arg%2 == 1 {
			j.SetIORate(float64(1 + arg/2%8))
		}
		return n.Admit(j, now-q+time.Duration(arg%(int(q/time.Microsecond)+1))*time.Microsecond)
	}
	return nil
}

// drawStretch builds twin nodes from fuzz input and picks the stretch to
// advance them by: the k quanta from the tick due at now. The draw covers
// job phases (flat and ramping, up and down), I/O rates, admission offsets
// (including mid-quantum and at the stretch's first instant), migrated
// arrivals that land with progress, memory
// capacity around the line the jobs' summed demand crosses, CPU speed,
// remote backing, the quantum, the stretch's mode (see FuzzFoldMatchesTick)
// and k up to 3000, or up to the nodes' CompletionFloor in mode 0. Each
// twin traces its events. The mode is drawn last, so a seed written before
// it existed draws mode 0 once its bytes run out.
func drawStretch(t *testing.T, d *draw) (dense, folded *Node, q, now time.Duration, k int64, mode int) {
	q = time.Duration(1+d.n(20)) * time.Millisecond
	type spec struct {
		cpu    time.Duration
		phases []job.Phase
		ioRate float64
		at     time.Duration
		ran    int
	}
	specs := make([]spec, 1+d.n(5))
	warm := int64(d.n(4))
	now = time.Duration(warm+1) * q
	peak := 0.0
	for i := range specs {
		s := &specs[i]
		s.cpu = time.Duration(1+d.n(120)) * 500 * time.Millisecond
		frac, mb := 0.0, float64(d.n(80))
		for p, np := 0, 1+d.n(3); p < np; p++ {
			end := 1.0
			if p < np-1 {
				end = frac + (1-frac)*float64(1+d.n(9))/10
			}
			next := mb
			if d.n(3) > 0 { // two phases in three ramp
				next = float64(d.n(80))
			}
			s.phases = append(s.phases, job.Phase{EndFrac: end, StartMB: mb, EndMB: next})
			frac, mb = end, next
			peak = max(peak, next)
		}
		if d.n(2) == 1 {
			s.ioRate = float64(1 + d.n(8))
		}
		// Most jobs are resident before the stretch; some arrive inside
		// its first quantum or exactly at its first tick.
		s.at = time.Duration(d.n(int(warm)+1)) * q
		if d.n(3) == 0 {
			s.at = now - q + time.Duration(d.n(int(q/time.Microsecond)+1))*time.Microsecond
		}
		if d.n(3) == 0 { // some land as migrations, with progress
			s.ran = 1 + d.n(200)
		}
	}
	capMB := 20 + peak*float64(len(specs))*float64(40+d.n(80))/100
	speed := float64(200 + 100*d.n(4))
	remote := time.Duration(d.n(3)) * time.Millisecond
	kMax := int64(1 + d.n(3000))

	mk := func() *Node {
		n, err := New(Config{CPUSpeedMHz: speed, RefSpeedMHz: 400, CPUThreshold: 8,
			Memory: memory.Config{CapacityMB: capMB, UserFraction: 1}})
		if err != nil {
			t.Fatal(err)
		}
		watched(n)
		n.SetTracer(obs.NewTracer(0))
		n.Memory().SetRemoteBacking(remote)
		// Each job is admitted just before the first tick at or after its
		// offset; the last pass admits the stretch's arrivals.
		admitted := make([]bool, len(specs))
		for tick := int64(1); tick <= warm+1; tick++ {
			at := time.Duration(tick) * q
			for id, s := range specs {
				if !admitted[id] && s.at <= at {
					j, err := job.New(id, "fuzz", s.cpu, s.phases, 0)
					if err != nil {
						t.Fatal(err)
					}
					j.SetIORate(s.ioRate)
					land(t, n, j, q, s.ran, s.at)
					admitted[id] = true
				}
			}
			if tick <= warm {
				if _, err := n.tick(q, at); err != nil {
					t.Fatal(err)
				}
			}
		}
		return n
	}
	dense, folded = mk(), mk()
	if mode = d.n(3); mode == 0 {
		kMax = dense.CompletionFloor(q, kMax)
	}
	return dense, folded, q, now, kMax, mode
}

// draw reads bounded integers from fuzz input, yielding zeros once the
// input runs out.
type draw []byte

func (d *draw) n(bound int) int {
	if len(*d) == 0 || bound <= 0 {
		return 0
	}
	b := int((*d)[0])
	if len(*d) > 1 {
		b = b<<8 | int((*d)[1])
		*d = (*d)[2:]
	} else {
		*d = (*d)[1:]
	}
	return b % bound
}
