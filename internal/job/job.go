// Package job models the unit of work scheduled by the cluster: a program
// execution with a CPU demand (its dedicated-environment lifetime), a memory
// demand that evolves with execution progress, and a full wall-clock time
// breakdown (CPU service, paging, queuing, migration) matching the execution
// model of the paper's Section 5:
//
//	t_exe(i) = t_cpu(i) + t_page(i) + t_que(i) + t_mig(i)
package job

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// State tracks where a job is in its lifecycle.
type State int

// Job lifecycle states.
const (
	// StatePending means the job has been submitted but not yet admitted
	// to any workstation (it is waiting for a qualified destination).
	StatePending State = iota + 1
	// StateRunning means the job occupies a job slot on a workstation.
	StateRunning
	// StateMigrating means the job is frozen while its memory image moves
	// between workstations.
	StateMigrating
	// StateDone means the job has received all of its CPU demand.
	StateDone
	// StateKilled means the job was terminated by a workstation failure
	// and will never complete (the fault plan's kill policy). It is a
	// terminal state like StateDone.
	StateKilled
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateMigrating:
		return "migrating"
	case StateDone:
		return "done"
	case StateKilled:
		return "killed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Phase is one segment of a job's memory-demand profile. Demand interpolates
// linearly from StartMB to EndMB as the job's CPU progress moves from the
// previous phase boundary to EndFrac (a fraction of total CPU demand in
// [0, 1]). Tying demand to CPU progress rather than wall time models program
// phases: a job starved of CPU also defers its allocation growth.
type Phase struct {
	EndFrac float64 `json:"endFrac"`
	StartMB float64 `json:"startMB"`
	EndMB   float64 `json:"endMB"`
}

// Breakdown is the Section 5 decomposition of one job's execution time.
type Breakdown struct {
	CPU       time.Duration `json:"cpu"`
	Page      time.Duration `json:"page"`
	Queue     time.Duration `json:"queue"`
	Migration time.Duration `json:"migration"`
}

// Total sums the four components.
func (b Breakdown) Total() time.Duration {
	return b.CPU + b.Page + b.Queue + b.Migration
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.CPU += o.CPU
	b.Page += o.Page
	b.Queue += o.Queue
	b.Migration += o.Migration
}

// Job is a single program execution flowing through the cluster.
type Job struct {
	ID        int
	Program   string
	CPUDemand time.Duration
	Phases    []Phase
	SubmitAt  time.Duration

	ioRateMBps float64

	state    State
	cpuDone  time.Duration
	acct     Breakdown
	startAt  time.Duration
	doneAt   time.Duration
	migrated int
	restarts int
	node     int // current workstation ID, -1 when none

	// queueFrom is the moment the current admission wait began: submission
	// time initially, the requeue time after a crash restart. Start charges
	// queue delay from here, so a restarted job is not double-charged for
	// the wait it already served.
	queueFrom time.Duration
}

// New validates and constructs a job. CPUDemand must be positive; phases
// must have nondecreasing EndFrac values ending at 1 and nonnegative
// demands. A job with no phases has zero memory demand throughout.
func New(id int, program string, cpuDemand time.Duration, phases []Phase, submitAt time.Duration) (*Job, error) {
	if cpuDemand <= 0 {
		return nil, fmt.Errorf("job %d: CPU demand %v must be positive", id, cpuDemand)
	}
	if submitAt < 0 {
		return nil, fmt.Errorf("job %d: negative submit time %v", id, submitAt)
	}
	prev := 0.0
	for i, p := range phases {
		if p.EndFrac < prev || p.EndFrac > 1 {
			return nil, fmt.Errorf("job %d: phase %d boundary %v out of order", id, i, p.EndFrac)
		}
		if p.StartMB < 0 || p.EndMB < 0 {
			return nil, fmt.Errorf("job %d: phase %d has negative demand", id, i)
		}
		prev = p.EndFrac
	}
	if len(phases) > 0 && phases[len(phases)-1].EndFrac != 1 {
		return nil, fmt.Errorf("job %d: final phase must end at progress 1, got %v", id, prev)
	}
	return &Job{
		ID:        id,
		Program:   program,
		CPUDemand: cpuDemand,
		Phases:    phases,
		SubmitAt:  submitAt,
		state:     StatePending,
		node:      -1,
		queueFrom: submitAt,
	}, nil
}

// SetIORate declares the job's sustained read/write rate in MB/s while it
// computes (0 for CPU/memory-only jobs). I/O-active jobs slow down when
// the workstation's buffer cache is squeezed by memory pressure.
func (j *Job) SetIORate(mbps float64) {
	if mbps < 0 {
		mbps = 0
	}
	j.ioRateMBps = mbps
}

// IORate reports the job's sustained I/O rate in MB/s.
func (j *Job) IORate() float64 { return j.ioRateMBps }

// State reports the job's lifecycle state.
func (j *Job) State() State { return j.state }

// Node reports the workstation currently hosting the job, or -1.
func (j *Job) Node() int { return j.node }

// CPUDone reports accumulated CPU service.
func (j *Job) CPUDone() time.Duration { return j.cpuDone }

// Remaining reports outstanding CPU demand.
func (j *Job) Remaining() time.Duration {
	if r := j.CPUDemand - j.cpuDone; r > 0 {
		return r
	}
	return 0
}

// Progress reports the fraction of CPU demand served, in [0, 1].
func (j *Job) Progress() float64 { return j.ProgressAt(j.cpuDone) }

// ProgressAt reports the progress fraction at an arbitrary accumulated
// service, with the same arithmetic as Progress.
func (j *Job) ProgressAt(service time.Duration) float64 {
	p := float64(service) / float64(j.CPUDemand)
	if p > 1 {
		return 1
	}
	return p
}

// Age reports how long the job has been running on its current placement
// history, measured from first start to now (or to completion).
func (j *Job) Age(now time.Duration) time.Duration {
	if j.state == StatePending {
		return 0
	}
	end := now
	if j.state == StateDone || j.state == StateKilled {
		end = j.doneAt
	}
	return end - j.startAt
}

// MemoryDemandMB reports the job's current memory demand given its CPU
// progress, by piecewise-linear interpolation over its phases.
func (j *Job) MemoryDemandMB() float64 {
	return j.MemoryDemandAtMB(j.Progress())
}

// Segment is a phase cursor: the stretch (From, Until] of CPU service over
// which one piece of a job's memory-demand profile applies, with what
// DemandAt needs to evaluate it there. It caches only values derived from
// the job's immutable profile, so a holder may keep it across any number of
// ticks and must rebuild it with SegmentAt once service leaves the stretch.
// The zero Segment covers no service.
type Segment struct {
	From, Until time.Duration

	// On a ramp, cpu, prev and ramp are MemoryDemandAtMB's operands: the
	// progress divisor, the previous phase boundary and the phase. A flat
	// segment has no ramp; prev holds its demand.
	cpu, prev float64
	ramp      *Phase
}

// Covers reports whether service lies in (From, Until].
func (s *Segment) Covers(service time.Duration) bool {
	return service > s.From && service <= s.Until
}

// Flat reports whether the demand is the same at every covered service.
func (s *Segment) Flat() bool { return s.ramp == nil }

// DemandAt reports the demand at a covered service, bit-identical to
// MemoryDemandAtMB(ProgressAt(service)).
func (s *Segment) DemandAt(service time.Duration) float64 {
	p := s.ramp
	if p == nil {
		return s.prev
	}
	frac := float64(service) / s.cpu
	if frac > 1 {
		frac = 1
	}
	t := (frac - s.prev) / (p.EndFrac - s.prev)
	return p.StartMB + t*(p.EndMB-p.StartMB)
}

// SegmentAt returns the cursor covering a CPU service of at least zero.
// MemoryDemandAtMB picks the first phase whose EndFrac is at or above the
// progress, so the phase at progress p > 0 covers the services whose
// progress lies above the previous boundary and at or below its own; a
// zero-width phase covers none. Service 0 and a profile with no phases get
// flat segments of their own.
func (j *Job) SegmentAt(service time.Duration) Segment {
	if len(j.Phases) == 0 {
		return Segment{From: -1, Until: math.MaxInt64}
	}
	frac := j.ProgressAt(service)
	if frac <= 0 {
		return Segment{From: -1, Until: 0, prev: j.Phases[0].StartMB}
	}
	prev := 0.0
	for i := range j.Phases {
		p := &j.Phases[i]
		if frac > p.EndFrac {
			prev = p.EndFrac
			continue
		}
		s := Segment{From: j.lastServiceAt(prev), Until: math.MaxInt64, cpu: float64(j.CPUDemand), prev: prev, ramp: p}
		if p.EndFrac < 1 {
			s.Until = j.lastServiceAt(p.EndFrac)
		}
		if p.StartMB == p.EndMB {
			// t*(EndMB-StartMB) is the same at every covered service (t
			// lies in (0, 1]), so one evaluation is the phase's demand.
			s.prev, s.ramp = s.DemandAt(service), nil
		}
		return s
	}
	// A profile that stops short of progress 1 holds its last demand.
	return Segment{From: j.lastServiceAt(prev), Until: math.MaxInt64, prev: j.Phases[len(j.Phases)-1].EndMB}
}

// lastServiceAt reports the largest service whose progress is at or below
// frac < 1. The fix-up loops absorb rounding of the float estimate, so the
// bound is exact.
func (j *Job) lastServiceAt(frac float64) time.Duration {
	h := time.Duration(frac * float64(j.CPUDemand))
	for h > 0 && float64(h)/float64(j.CPUDemand) > frac {
		h--
	}
	for h < j.CPUDemand && float64(h+1)/float64(j.CPUDemand) <= frac {
		h++
	}
	return h
}

// MemoryDemandAtMB reports the demand at an arbitrary progress fraction.
func (j *Job) MemoryDemandAtMB(frac float64) float64 {
	if len(j.Phases) == 0 {
		return 0
	}
	if frac <= 0 {
		return j.Phases[0].StartMB
	}
	if frac > 1 {
		frac = 1
	}
	prev := 0.0
	for _, p := range j.Phases {
		if frac <= p.EndFrac {
			span := p.EndFrac - prev
			if span <= 0 {
				return p.EndMB
			}
			t := (frac - prev) / span
			return p.StartMB + t*(p.EndMB-p.StartMB)
		}
		prev = p.EndFrac
	}
	return j.Phases[len(j.Phases)-1].EndMB
}

// PeakMemoryMB reports the largest demand over the whole profile (the
// working set reported in the paper's Tables 1 and 2).
func (j *Job) PeakMemoryMB() float64 {
	peak := 0.0
	for _, p := range j.Phases {
		if p.StartMB > peak {
			peak = p.StartMB
		}
		if p.EndMB > peak {
			peak = p.EndMB
		}
	}
	return peak
}

// Start marks the job admitted to a workstation at time now. It is valid
// from the pending state only.
func (j *Job) Start(nodeID int, now time.Duration) error {
	if j.state != StatePending {
		return fmt.Errorf("job %d: start from state %v", j.ID, j.state)
	}
	j.state = StateRunning
	j.node = nodeID
	j.startAt = now
	// Time spent waiting for admission counts as queuing delay, exactly
	// as blocked submissions do in the paper's blocking problem.
	j.acct.Queue += now - j.queueFrom
	return nil
}

// BeginMigration freezes a running job for transfer.
func (j *Job) BeginMigration(now time.Duration) error {
	if j.state != StateRunning {
		return fmt.Errorf("job %d: migrate from state %v", j.ID, j.state)
	}
	j.state = StateMigrating
	j.node = -1
	return nil
}

// CompleteMigration lands the job on its destination, charging the transfer
// time to the migration component.
func (j *Job) CompleteMigration(nodeID int, cost time.Duration) error {
	if j.state != StateMigrating {
		return fmt.Errorf("job %d: land from state %v", j.ID, j.state)
	}
	if cost < 0 {
		return fmt.Errorf("job %d: negative migration cost %v", j.ID, cost)
	}
	j.state = StateRunning
	j.node = nodeID
	j.acct.Migration += cost
	j.migrated++
	return nil
}

// Kill terminates a running or frozen job permanently: its workstation
// crashed (or its migration was abandoned) under a fault plan whose policy
// does not resubmit work. Killed is terminal; the job never completes.
func (j *Job) Kill(now time.Duration) error {
	if j.state != StateRunning && j.state != StateMigrating {
		return fmt.Errorf("job %d: kill from state %v", j.ID, j.state)
	}
	j.state = StateKilled
	j.node = -1
	j.doneAt = now
	return nil
}

// KilledAt reports when the job was killed; valid only once killed.
func (j *Job) KilledAt() (time.Duration, error) {
	if j.state != StateKilled {
		return 0, errors.New("job: not killed")
	}
	return j.doneAt, nil
}

// Requeue returns a running or frozen job to the pending state after its
// workstation crashed: without checkpointing the restarted execution begins
// from scratch, so CPU progress resets while the accumulated time breakdown
// keeps the lost work on the books. Queue delay for the new admission wait
// is charged from now.
func (j *Job) Requeue(now time.Duration) error {
	if j.state != StateRunning && j.state != StateMigrating {
		return fmt.Errorf("job %d: requeue from state %v", j.ID, j.state)
	}
	j.state = StatePending
	j.node = -1
	j.cpuDone = 0
	j.restarts++
	j.queueFrom = now
	return nil
}

// Restarts reports how many times the job was requeued by node crashes.
func (j *Job) Restarts() int { return j.restarts }

// EnqueuedAt reports when the job's current admission wait began: its
// submission time, or the requeue time after a crash restart. The cluster's
// graceful-degradation bound measures blocked-submission waits from here.
func (j *Job) EnqueuedAt() time.Duration { return j.queueFrom }

// StartWait reports the delay between submission and first admission —
// the share of queuing delay caused by blocked or remote submissions
// rather than by round-robin CPU sharing.
func (j *Job) StartWait() time.Duration {
	if j.state == StatePending {
		return 0
	}
	return j.startAt - j.SubmitAt
}

// ReclassifyQueue moves d of already-charged queue time into the migration
// bucket. It attributes the fixed remote submission/execution cost r: a
// remotely submitted job starts r later than a local one, and that latency
// belongs with the other load-sharing overheads in the Section 5
// decomposition rather than with queuing delay.
func (j *Job) ReclassifyQueue(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("job %d: negative reclassification %v", j.ID, d)
	}
	if d > j.acct.Queue {
		return fmt.Errorf("job %d: reclassify %v exceeds queue time %v", j.ID, d, j.acct.Queue)
	}
	j.acct.Queue -= d
	j.acct.Migration += d
	return nil
}

// AddFrozenQueue charges queue time to a migrating job. It covers the case
// where a migration lands on a destination that has meanwhile filled up and
// the job must wait, frozen, for another qualified workstation.
func (j *Job) AddFrozenQueue(d time.Duration) error {
	if j.state != StateMigrating {
		return fmt.Errorf("job %d: frozen queue charge in state %v", j.ID, j.state)
	}
	if d < 0 {
		return fmt.Errorf("job %d: negative frozen queue %v", j.ID, d)
	}
	j.acct.Queue += d
	return nil
}

// Account charges one scheduling quantum's worth of service to the job:
// cpu of CPU progress, page of page-fault stall, and queue of time spent
// runnable but not executing. It reports whether the job completed.
func (j *Job) Account(cpu, page, queue time.Duration, now time.Duration) (done bool, err error) {
	if j.state != StateRunning {
		return false, fmt.Errorf("job %d: account in state %v", j.ID, j.state)
	}
	if cpu < 0 || page < 0 || queue < 0 {
		return false, fmt.Errorf("job %d: negative accounting (%v, %v, %v)", j.ID, cpu, page, queue)
	}
	j.cpuDone += cpu
	j.acct.CPU += cpu
	j.acct.Page += page
	j.acct.Queue += queue
	if j.cpuDone >= j.CPUDemand {
		j.state = StateDone
		j.doneAt = now
		j.node = -1
		return true, nil
	}
	return false, nil
}

// AccountFold charges the exact integer sums of a stretch of scheduling
// quanta (the node's quantum fold) — the closed form of the corresponding
// sequential Account calls, exact because every accumulation is an integer
// sum. It must not reach the completion boundary: the fold guarantees every
// constituent quantum left demand outstanding (a quantum that completes the
// job needs Account's completion handling).
func (j *Job) AccountFold(cpu, page, queue time.Duration) error {
	if j.state != StateRunning {
		return fmt.Errorf("job %d: account in state %v", j.ID, j.state)
	}
	if cpu < 0 || page < 0 || queue < 0 {
		return fmt.Errorf("job %d: negative folded accounting (%v, %v, %v)", j.ID, cpu, page, queue)
	}
	if j.cpuDone+cpu >= j.CPUDemand {
		return fmt.Errorf("job %d: folded quanta cross the completion boundary", j.ID)
	}
	j.cpuDone += cpu
	j.acct.CPU += cpu
	j.acct.Page += page
	j.acct.Queue += queue
	return nil
}

// Breakdown returns the accumulated time decomposition.
func (j *Job) Breakdown() Breakdown { return j.acct }

// Migrations reports how many times the job has been migrated.
func (j *Job) Migrations() int { return j.migrated }

// DoneAt reports the completion time; valid only once done.
func (j *Job) DoneAt() (time.Duration, error) {
	if j.state != StateDone {
		return 0, errors.New("job: not done")
	}
	return j.doneAt, nil
}

// WallTime reports submit-to-completion time; valid only once done.
func (j *Job) WallTime() (time.Duration, error) {
	if j.state != StateDone {
		return 0, errors.New("job: not done")
	}
	return j.doneAt - j.SubmitAt, nil
}

// Slowdown is the ratio of wall-clock execution time to CPU execution time,
// the paper's primary per-job metric. Valid only once done.
func (j *Job) Slowdown() (float64, error) {
	w, err := j.WallTime()
	if err != nil {
		return 0, err
	}
	return float64(w) / float64(j.acct.CPU), nil
}

// Snapshot captures the job's mutable lifecycle state for cluster forking.
// The identity and demand profile (ID, Program, CPUDemand, Phases,
// SubmitAt, I/O rate) are immutable after construction and shared.
type Snapshot struct {
	state     State
	cpuDone   time.Duration
	acct      Breakdown
	startAt   time.Duration
	doneAt    time.Duration
	migrated  int
	restarts  int
	node      int
	queueFrom time.Duration
}

// Snapshot captures the mutable state.
func (j *Job) Snapshot() Snapshot {
	return Snapshot{
		state:     j.state,
		cpuDone:   j.cpuDone,
		acct:      j.acct,
		startAt:   j.startAt,
		doneAt:    j.doneAt,
		migrated:  j.migrated,
		restarts:  j.restarts,
		node:      j.node,
		queueFrom: j.queueFrom,
	}
}

// Restore rewinds the job to a prior Snapshot.
func (j *Job) Restore(s Snapshot) {
	j.state = s.state
	j.cpuDone = s.cpuDone
	j.acct = s.acct
	j.startAt = s.startAt
	j.doneAt = s.doneAt
	j.migrated = s.migrated
	j.restarts = s.restarts
	j.node = s.node
	j.queueFrom = s.queueFrom
}
