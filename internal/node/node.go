// Package node models one workstation: a CPU scheduled round-robin among
// resident jobs (the paper's intra-workstation scheduling), a job-slot
// limit (the CPU threshold), and a memory manager whose pressure converts
// CPU progress into paging delay. Nodes know nothing about load sharing;
// inter-workstation policy lives above them.
package node

import (
	"fmt"
	"sort"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/memory"
	"vrcluster/internal/obs"
)

// Config describes one workstation.
type Config struct {
	ID int

	// CPUSpeedMHz is this workstation's clock; RefSpeedMHz is the clock
	// of the machine on which job CPU demands were measured. Their ratio
	// scales execution speed in heterogeneous clusters; both simulated
	// homogeneous clusters use ratio 1.
	CPUSpeedMHz float64
	RefSpeedMHz float64

	// CPUThreshold is the maximum number of job slots the CPU is willing
	// to take.
	CPUThreshold int

	// ContextSwitch is charged per job per quantum when more than one
	// job shares the CPU.
	ContextSwitch time.Duration

	// DiskMBps is the local disk bandwidth serving buffer-cache misses;
	// IOCacheNeedMB is the page-cache working set an I/O-active job
	// needs for its reads and writes to hit memory. When memory pressure
	// squeezes the cache below that need, I/O-active jobs stall on the
	// disk — the buffer-cache status the paper's instrumentation
	// monitors (Section 3.1).
	DiskMBps      float64
	IOCacheNeedMB float64

	Memory memory.Config
}

// Defaults for the workstation model.
const (
	// DefaultContextSwitch is the paper's 0.1 ms context switch time.
	DefaultContextSwitch = 100 * time.Microsecond
	// DefaultDiskMBps matches late-90s commodity disks.
	DefaultDiskMBps = 10
	// DefaultIOCacheNeedMB is the buffer-cache working set per
	// I/O-active job.
	DefaultIOCacheNeedMB = 16
)

// Validate fills defaults and rejects nonsense.
func (c *Config) Validate() error {
	if c.CPUSpeedMHz <= 0 {
		return fmt.Errorf("node %d: CPU speed %v MHz must be positive", c.ID, c.CPUSpeedMHz)
	}
	if c.RefSpeedMHz == 0 {
		c.RefSpeedMHz = c.CPUSpeedMHz
	}
	if c.RefSpeedMHz <= 0 {
		return fmt.Errorf("node %d: reference speed %v MHz must be positive", c.ID, c.RefSpeedMHz)
	}
	if c.CPUThreshold <= 0 {
		return fmt.Errorf("node %d: CPU threshold %d must be positive", c.ID, c.CPUThreshold)
	}
	if c.ContextSwitch == 0 {
		c.ContextSwitch = DefaultContextSwitch
	}
	if c.ContextSwitch < 0 {
		return fmt.Errorf("node %d: negative context switch %v", c.ID, c.ContextSwitch)
	}
	if c.DiskMBps == 0 {
		c.DiskMBps = DefaultDiskMBps
	}
	if c.DiskMBps < 0 {
		return fmt.Errorf("node %d: negative disk bandwidth %v", c.ID, c.DiskMBps)
	}
	if c.IOCacheNeedMB == 0 {
		c.IOCacheNeedMB = DefaultIOCacheNeedMB
	}
	if c.IOCacheNeedMB < 0 {
		return fmt.Errorf("node %d: negative cache need %v", c.ID, c.IOCacheNeedMB)
	}
	return nil
}

// Node is one simulated workstation.
type Node struct {
	cfg  Config
	mem  *memory.Manager
	jobs []*job.Job

	reserved     bool
	down         bool         // crashed and not yet repaired
	draining     bool         // leaving gracefully: no new work, residents migrate out
	removed      bool         // retired from the cluster; permanently inert
	reservedJobs map[int]bool // jobs admitted under reservation (special service)

	// covered[i] records the virtual time up to which jobs[i]'s execution
	// has been accounted, so jobs admitted mid-quantum are only credited
	// for their actual residency. demand[i] caches jobs[i]'s memory
	// demand as registered with the manager, so the per-tick refresh only
	// touches the manager when a job's demand actually moves. Both slices
	// track jobs index-for-index through admission and removal.
	covered []time.Duration
	demand  []float64

	// flatUntil[i] is the CPU-service horizon from jobs[i].DemandHorizon:
	// while the job's accumulated service stays at or below it, the demand
	// refresh is skipped (the job is in a flat memory phase).
	flatUntil []time.Duration

	// ioActive counts resident jobs with a nonzero I/O rate (rates are
	// fixed before admission), keeping the per-tick cache-availability
	// check O(1).
	ioActive int

	// watcher, when set, observes every resident-job-count change; the
	// cluster uses it to maintain its active-workstation set.
	watcher func(resident int)

	// pressure, when set, observes every memory-pressure transition; the
	// cluster uses it to maintain an exact pressured-workstation index so
	// control loops need not scan every node. lastPressured is the state
	// last reported, so only transitions reach the watcher.
	pressure      func(pressured bool)
	lastPressured bool

	// tr receives admission, landing, and completion events; nil when
	// tracing is off.
	tr *obs.Tracer

	// incoming holds capacity (a job slot and memory demand) for
	// migrations in flight toward this node, so the destination cannot
	// fill up while the memory image is being transferred.
	incoming map[int]float64

	faults       float64 // cumulative page-fault count
	cpuDelivered time.Duration
	ioStall      time.Duration // cumulative buffer-cache-miss stall

	// Batched-quantum plan scratch, valid only between a PlanQuanta and
	// the matching ApplyQuanta within one engine event. It is derived
	// state that never survives an event boundary, so it is deliberately
	// excluded from Snapshot/Restore.
	planNow   time.Duration
	planDt    time.Duration
	planK     int64
	planCPU   []time.Duration
	planPage  []time.Duration
	planQueue []time.Duration
	planIO    []time.Duration

	// Ramp-replay scratch for TickRampBatch, same lifetime and
	// Snapshot/Restore exclusion as the plan scratch above.
	rampDemand []float64
	rampFlat   []time.Duration
	rampIDs    []int

	// pressPlans is a small ring of cached stall-replay plans for
	// TickPressuredBatch. Unlike the single-event scratch above, cached
	// plans intentionally outlive the event that built them: every entry
	// is keyed on the complete set of inputs its replay depends on (jobs
	// by identity, per-job service/demand/phase state, the demand total,
	// the quantum, the stretch length, and the fault-service override),
	// so a hit is valid whenever the key matches — including after a
	// Restore, where forks re-entering the same warmup prefix re-derive
	// exactly the keyed state and reuse the plan across what-if cells.
	// Content addressing is what makes the cache fork-safe without any
	// invalidation hook in Snapshot/Restore.
	pressPlans [pressPlanSlots]pressPlan
	pressNext  int
	// pressRun is the replay's running per-job CPU-service cursor, plain
	// single-event scratch like the ramp slices.
	pressRun []time.Duration
	pressIO  []float64

	// doneScratch backs Tick's completed-jobs return value. Callers
	// consume the slice before the node's next Tick, so reusing one
	// backing array keeps completion-bearing quanta allocation-free.
	doneScratch []*job.Job
}

// pressPlanSlots is the per-node plan-cache ring size: enough to hold the
// plans of the handful of batched stretches between a snapshot point and
// the first divergence, which is the window fork-heavy experiment grids
// (WhatIfGrid, SeedSensitivity) replay over and over.
const pressPlanSlots = 4

// pressPlan is one cached stall-replay plan: the folded outcome of k
// pressured quanta, plus the complete key identifying the node state it
// was computed from.
type pressPlan struct {
	used bool

	// Key. jobs are compared by pointer identity (profiles are immutable;
	// a restored fork re-holds the very same Job objects), the rest by
	// value. The demand total and fault-service override pin the memory
	// manager's stall arithmetic; ioRate pins each job's cache-miss term.
	dt         time.Duration
	k          int64
	remote     time.Duration
	total      float64
	faultStart float64
	jobs       []*job.Job
	ioRate     []float64
	done       []time.Duration
	demand     []float64
	flat       []time.Duration

	// Folded outputs: exact integer sums per job, the demand/phase state
	// after the stretch, the replayed demand total, and the fault
	// accumulator after the stretch. Float accumulation is order-dependent,
	// so faultEnd is built by adding each quantum's accrual to faultStart
	// in exact replay order — which is why faultStart is part of the key.
	sumCPU    []time.Duration
	sumPage   []time.Duration
	sumQueue  []time.Duration
	sumIO     []time.Duration
	endDemand []float64
	endFlat   []time.Duration
	endTotal  float64
	changed   bool
	faultEnd  float64
}

// matches reports whether the plan was built from exactly the given node
// state.
func (p *pressPlan) matches(n *Node, dt time.Duration, k int64, remote time.Duration, total float64) bool {
	if !p.used || p.dt != dt || p.k != k || p.remote != remote ||
		p.total != total || p.faultStart != n.faults || len(p.jobs) != len(n.jobs) {
		return false
	}
	for i, j := range n.jobs {
		if p.jobs[i] != j || p.ioRate[i] != j.IORate() || p.done[i] != j.CPUDone() ||
			p.demand[i] != n.demand[i] || p.flat[i] != n.flatUntil[i] {
			return false
		}
	}
	return true
}

// New constructs a workstation.
func New(cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mem, err := memory.NewManager(cfg.Memory)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", cfg.ID, err)
	}
	return &Node{
		cfg:          cfg,
		mem:          mem,
		reservedJobs: make(map[int]bool),
		incoming:     make(map[int]float64),
	}, nil
}

// SetResidencyWatcher registers fn to be called with the resident job count
// after every admission, landing, detach, crash, and completion. A nil fn
// clears the watcher.
func (n *Node) SetResidencyWatcher(fn func(resident int)) { n.watcher = fn }

// SetPressureWatcher registers fn to be called whenever the node's memory
// pressure flips. Pressure changes only when registered demand changes, and
// every demand mutation funnels through the node's own methods, so the
// notification sites below keep the watcher's view exact. A nil fn clears
// the watcher.
func (n *Node) SetPressureWatcher(fn func(pressured bool)) {
	n.pressure = fn
	n.lastPressured = n.mem.Pressured()
}

// notifyPressure reports a pressure transition to the watcher, if any.
func (n *Node) notifyPressure() {
	if n.pressure == nil {
		return
	}
	if p := n.mem.Pressured(); p != n.lastPressured {
		n.lastPressured = p
		n.pressure(p)
	}
}

// SetTracer installs the structured event sink. A nil tracer disables the
// node's emissions.
func (n *Node) SetTracer(tr *obs.Tracer) { n.tr = tr }

// notifyResidency reports the current resident count to the watcher.
func (n *Node) notifyResidency() {
	if n.watcher != nil {
		n.watcher(len(n.jobs))
	}
}

// appendResident adds j to the resident set with its accounting baseline at
// now and demandMB registered with the memory manager.
func (n *Node) appendResident(j *job.Job, now time.Duration, demandMB float64) {
	n.jobs = append(n.jobs, j)
	n.covered = append(n.covered, now)
	n.demand = append(n.demand, demandMB)
	n.flatUntil = append(n.flatUntil, 0)
	if j.IORate() > 0 {
		n.ioActive++
	}
	n.notifyResidency()
}

// removeResidentAt drops jobs[idx] from the resident set, preserving
// round-robin order.
func (n *Node) removeResidentAt(idx int) {
	j := n.jobs[idx]
	if j.IORate() > 0 {
		n.ioActive--
	}
	n.jobs = append(n.jobs[:idx], n.jobs[idx+1:]...)
	n.covered = append(n.covered[:idx], n.covered[idx+1:]...)
	n.demand = append(n.demand[:idx], n.demand[idx+1:]...)
	n.flatUntil = append(n.flatUntil[:idx], n.flatUntil[idx+1:]...)
	n.notifyResidency()
}

// ID reports the workstation's identifier.
func (n *Node) ID() int { return n.cfg.ID }

// Config returns the validated configuration.
func (n *Node) Config() Config { return n.cfg }

// SpeedFactor is CPU speed relative to the demand-reference machine.
func (n *Node) SpeedFactor() float64 { return n.cfg.CPUSpeedMHz / n.cfg.RefSpeedMHz }

// Memory exposes the node's memory manager.
func (n *Node) Memory() *memory.Manager { return n.mem }

// NumJobs reports resident job count.
func (n *Node) NumJobs() int { return len(n.jobs) }

// Jobs returns a copy of the resident job list in round-robin order.
func (n *Node) Jobs() []*job.Job {
	out := make([]*job.Job, len(n.jobs))
	copy(out, n.jobs)
	return out
}

// JobAt returns the i-th resident job in round-robin order. Together with
// NumJobs it lets per-control scans iterate residents without the
// defensive copy Jobs makes.
func (n *Node) JobAt(i int) *job.Job { return n.jobs[i] }

// HasSlot reports whether a job slot is free (CPU threshold not reached),
// counting slots held for in-flight migrations. A crashed workstation has
// no slots until repaired; draining and removed workstations never do —
// they are shedding work, not accepting it.
func (n *Node) HasSlot() bool {
	return !n.down && !n.draining && !n.removed &&
		len(n.jobs)+len(n.incoming) < n.cfg.CPUThreshold
}

// ExpectMigration holds a job slot and demandMB of memory for a migration
// in flight toward this node, so capacity cannot be given away before the
// memory image lands.
func (n *Node) ExpectMigration(jobID int, demandMB float64) error {
	if n.down {
		return fmt.Errorf("node %d: down, cannot hold for job %d", n.cfg.ID, jobID)
	}
	if !n.HasSlot() {
		return fmt.Errorf("node %d: no job slot to hold for job %d", n.cfg.ID, jobID)
	}
	if _, ok := n.incoming[jobID]; ok {
		return fmt.Errorf("node %d: job %d already expected", n.cfg.ID, jobID)
	}
	if err := n.mem.Register(jobID, demandMB); err != nil {
		return err
	}
	n.incoming[jobID] = demandMB
	n.notifyPressure()
	return nil
}

// CancelExpected releases a hold placed by ExpectMigration (the migration
// was retargeted or abandoned).
func (n *Node) CancelExpected(jobID int) error {
	if _, ok := n.incoming[jobID]; !ok {
		return fmt.Errorf("node %d: job %d not expected", n.cfg.ID, jobID)
	}
	delete(n.incoming, jobID)
	err := n.mem.Remove(jobID)
	n.notifyPressure()
	return err
}

// ExpectedCount reports migrations currently in flight toward this node.
func (n *Node) ExpectedCount() int { return len(n.incoming) }

// IdleMB reports idle user memory.
func (n *Node) IdleMB() float64 { return n.mem.IdleMB() }

// Pressured reports whether memory demand exceeds user memory.
func (n *Node) Pressured() bool { return n.mem.Pressured() }

// Reserved reports whether the node is under a virtual reconfiguration
// reservation (no normal submissions or migrations allowed in).
func (n *Node) Reserved() bool { return n.reserved }

// SetReserved flips the reservation flag. Dropping a reservation also
// cancels any expected-migration holds placed while it was in force:
// special-service transfers still in flight toward a released lease must
// not strand phantom memory demand on a workstation the scheduler again
// sees as regular. Their landings fall back to the holdless path and are
// re-routed by the stranded-migration retry loop if the node has since
// filled up.
func (n *Node) SetReserved(v bool) {
	if n.reserved && !v {
		ids := make([]int, 0, len(n.incoming))
		for id := range n.incoming {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			delete(n.incoming, id)
			_ = n.mem.Remove(id)
		}
		n.notifyPressure()
	}
	n.reserved = v
}

// Down reports whether the workstation has crashed and not yet recovered.
func (n *Node) Down() bool { return n.down }

// Crash fails the workstation at virtual time now: every resident job is
// settled (uncovered residency charged as queuing delay, as in Detach) and
// removed, expected-migration holds are dropped, and any reservation is
// cleared. The displaced jobs are returned still in the running state; the
// caller decides their fate (kill or requeue) per the fault plan. The node
// accepts no work until Recover.
func (n *Node) Crash(now time.Duration) ([]*job.Job, error) {
	if n.down {
		return nil, fmt.Errorf("node %d: crash while already down", n.cfg.ID)
	}
	lost := make([]*job.Job, len(n.jobs))
	copy(lost, n.jobs)
	for i, j := range lost {
		if from := n.covered[i]; now > from {
			if _, err := j.Account(0, 0, now-from, now); err != nil {
				return nil, err
			}
		}
		if err := n.mem.Remove(j.ID); err != nil {
			return nil, err
		}
	}
	ids := make([]int, 0, len(n.incoming))
	for id := range n.incoming {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		delete(n.incoming, id)
		if err := n.mem.Remove(id); err != nil {
			return nil, err
		}
	}
	n.jobs = nil
	n.covered = nil
	n.demand = nil
	n.flatUntil = nil
	n.ioActive = 0
	n.reserved = false
	n.down = true
	n.reservedJobs = make(map[int]bool)
	n.mem.SetRemoteBacking(0)
	n.notifyResidency()
	n.notifyPressure()
	return lost, nil
}

// Recover repairs a crashed workstation: it rejoins the cluster empty and
// unreserved, ready to accept submissions and migrations again.
func (n *Node) Recover() error {
	if !n.down {
		return fmt.Errorf("node %d: recover while up", n.cfg.ID)
	}
	n.down = false
	return nil
}

// StartDrain marks the workstation as leaving gracefully: it accepts no new
// submissions, migrations, or holds, keeps running its resident jobs, and is
// retired once the cluster has migrated or re-placed them all. Draining is
// idempotent; a removed workstation cannot drain again.
func (n *Node) StartDrain() error {
	if n.removed {
		return fmt.Errorf("node %d: drain after removal", n.cfg.ID)
	}
	n.draining = true
	return nil
}

// Draining reports whether the workstation is draining toward removal.
func (n *Node) Draining() bool { return n.draining }

// Remove retires the workstation permanently. It must be empty: no resident
// jobs, no in-flight migration holds, and no reservation.
func (n *Node) Remove() error {
	if n.removed {
		return fmt.Errorf("node %d: already removed", n.cfg.ID)
	}
	if len(n.jobs) > 0 || len(n.incoming) > 0 {
		return fmt.Errorf("node %d: remove with %d resident jobs and %d expected migrations",
			n.cfg.ID, len(n.jobs), len(n.incoming))
	}
	if n.reserved {
		return fmt.Errorf("node %d: remove while reserved", n.cfg.ID)
	}
	n.removed = true
	n.draining = false
	return nil
}

// Removed reports whether the workstation has been retired.
func (n *Node) Removed() bool { return n.removed }

// ReservedJobCount reports how many resident jobs were admitted as special
// service under the reservation.
func (n *Node) ReservedJobCount() int {
	c := 0
	for _, j := range n.jobs {
		if n.reservedJobs[j.ID] {
			c++
		}
	}
	return c
}

// Faults reports cumulative page faults serviced on this node.
func (n *Node) Faults() float64 { return n.faults }

// IOStall reports cumulative disk stall from buffer-cache misses.
func (n *Node) IOStall() time.Duration { return n.ioStall }

// IOActiveJobs reports resident jobs with nonzero I/O rates — the I/O
// load status the load index publishes. The count is maintained
// incrementally (job I/O rates are fixed before admission).
func (n *Node) IOActiveJobs() int { return n.ioActive }

// CacheAvailability reports how much of the buffer-cache working set the
// node's I/O-active jobs can keep in memory, in [0, 1]. With no I/O-active
// jobs the cache is trivially sufficient.
func (n *Node) CacheAvailability() float64 {
	need := n.cfg.IOCacheNeedMB * float64(n.IOActiveJobs())
	if need <= 0 {
		return 1
	}
	avail := n.mem.IdleMB() / need
	if avail > 1 {
		return 1
	}
	return avail
}

// CPUDelivered reports cumulative CPU service delivered to jobs,
// in demand-reference seconds.
func (n *Node) CPUDelivered() time.Duration { return n.cpuDelivered }

// LoadStatus is the workstation's published load vector — the CPU, memory,
// and I/O status the load-information board collects each period.
type LoadStatus struct {
	NodeID    int
	Jobs      int
	Slots     int
	IdleMB    float64
	UserMB    float64
	Pressured bool
	Reserved  bool
	Down      bool
	Draining  bool
	Removed   bool
	HasSlot   bool
	FaultRate float64
	// IOActiveJobs and CacheAvailability are the I/O load status.
	IOActiveJobs      int
	CacheAvailability float64
}

// LoadStatus assembles the node's full published status in one call, so
// the board's periodic refresh reads each hot field exactly once instead
// of crossing eleven accessor boundaries per node.
func (n *Node) LoadStatus() LoadStatus {
	return LoadStatus{
		NodeID:            n.cfg.ID,
		Jobs:              len(n.jobs),
		Slots:             n.cfg.CPUThreshold,
		IdleMB:            n.mem.IdleMB(),
		UserMB:            n.mem.UserMB(),
		Pressured:         n.mem.Pressured(),
		Reserved:          n.reserved,
		Down:              n.down,
		Draining:          n.draining,
		Removed:           n.removed,
		HasSlot:           n.HasSlot(),
		FaultRate:         n.mem.FaultRate(),
		IOActiveJobs:      n.ioActive,
		CacheAvailability: n.CacheAvailability(),
	}
}

// Admit starts a newly submitted job on this node at time now.
func (n *Node) Admit(j *job.Job, now time.Duration) error {
	if n.down {
		return fmt.Errorf("node %d: down, cannot admit job %d", n.cfg.ID, j.ID)
	}
	if n.draining || n.removed {
		return fmt.Errorf("node %d: leaving the cluster, cannot admit job %d", n.cfg.ID, j.ID)
	}
	if !n.HasSlot() {
		return fmt.Errorf("node %d: no job slot for job %d", n.cfg.ID, j.ID)
	}
	if err := j.Start(n.cfg.ID, now); err != nil {
		return err
	}
	d := j.MemoryDemandMB()
	if err := n.mem.Register(j.ID, d); err != nil {
		return err
	}
	n.appendResident(j, now, d)
	n.notifyPressure()
	if n.tr != nil {
		n.tr.Emit(obs.Event{At: now, Kind: obs.KindJobAdmit,
			Node: int32(n.cfg.ID), Job: int32(j.ID), Aux: -1, Val: d})
	}
	return nil
}

// AttachMigrated lands a migrating job on this node at time now, charging
// the given migration cost, optionally as reservation special service. A
// hold previously placed with ExpectMigration is consumed if present.
func (n *Node) AttachMigrated(j *job.Job, cost time.Duration, special bool, now time.Duration) error {
	if n.down {
		return fmt.Errorf("node %d: down, cannot land job %d", n.cfg.ID, j.ID)
	}
	if n.removed {
		return fmt.Errorf("node %d: removed, cannot land job %d", n.cfg.ID, j.ID)
	}
	_, held := n.incoming[j.ID]
	if !held && !n.HasSlot() {
		return fmt.Errorf("node %d: no job slot for migrated job %d", n.cfg.ID, j.ID)
	}
	if err := j.CompleteMigration(n.cfg.ID, cost); err != nil {
		return err
	}
	d := j.MemoryDemandMB()
	if held {
		delete(n.incoming, j.ID)
		if err := n.mem.Update(j.ID, d); err != nil {
			return err
		}
	} else if err := n.mem.Register(j.ID, d); err != nil {
		return err
	}
	n.appendResident(j, now, d)
	n.notifyPressure()
	if special {
		n.reservedJobs[j.ID] = true
	}
	if n.tr != nil {
		var fl uint8
		if special {
			fl = obs.FlagSpecial
		}
		n.tr.Emit(obs.Event{At: now, Kind: obs.KindMigrationComplete, Flags: fl,
			Node: int32(n.cfg.ID), Job: int32(j.ID), Aux: -1, Val: cost.Seconds()})
	}
	return nil
}

// Detach removes a job for migration away at virtual time now, freezing
// it. Any residency interval not yet covered by a quantum tick is settled
// as queuing delay so the Section 5 time decomposition stays exact.
func (n *Node) Detach(j *job.Job, now time.Duration) error {
	idx := -1
	for i, r := range n.jobs {
		if r.ID == j.ID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("node %d: job %d not resident", n.cfg.ID, j.ID)
	}
	if from := n.covered[idx]; now > from {
		if _, err := j.Account(0, 0, now-from, now); err != nil {
			return err
		}
	}
	if err := j.BeginMigration(now); err != nil {
		return err
	}
	if err := n.mem.Remove(j.ID); err != nil {
		return err
	}
	n.removeResidentAt(idx)
	delete(n.reservedJobs, j.ID)
	n.notifyPressure()
	return nil
}

// MostMemoryIntensiveJob returns the resident job with the largest current
// memory demand (the reconfiguration routine's find_most_memory_intensive_
// job()), or nil when the node is empty. Ties break toward the job that has
// been resident longest (lowest index), matching the paper's observation
// that long-stayed jobs are predicted to stay longer.
func (n *Node) MostMemoryIntensiveJob() *job.Job {
	var best *job.Job
	bestDemand := -1.0
	for _, j := range n.jobs {
		if d := j.MemoryDemandMB(); d > bestDemand {
			best = j
			bestDemand = d
		}
	}
	return best
}

// Snapshot captures the workstation's complete mutable state for cluster
// forking: flags, resident jobs (the pointers; job state is snapshotted
// separately by the cluster), per-job accounting baselines, demand caches,
// migration holds, the memory manager, and cumulative counters.
type Snapshot struct {
	mem          memory.Snapshot
	jobs         []*job.Job
	reserved     bool
	down         bool
	draining     bool
	removed      bool
	reservedJobs map[int]bool
	covered      []time.Duration
	demand       []float64
	flatUntil    []time.Duration
	ioActive     int
	lastPressure bool
	incoming     map[int]float64
	faults       float64
	cpuDelivered time.Duration
	ioStall      time.Duration
}

// Snapshot captures the node's mutable state.
func (n *Node) Snapshot() Snapshot {
	s := Snapshot{
		mem:          n.mem.Snapshot(),
		jobs:         append([]*job.Job(nil), n.jobs...),
		reserved:     n.reserved,
		down:         n.down,
		draining:     n.draining,
		removed:      n.removed,
		covered:      append([]time.Duration(nil), n.covered...),
		demand:       append([]float64(nil), n.demand...),
		flatUntil:    append([]time.Duration(nil), n.flatUntil...),
		ioActive:     n.ioActive,
		lastPressure: n.lastPressured,
		faults:       n.faults,
		cpuDelivered: n.cpuDelivered,
		ioStall:      n.ioStall,
	}
	if len(n.reservedJobs) > 0 {
		s.reservedJobs = make(map[int]bool, len(n.reservedJobs))
		for id := range n.reservedJobs {
			s.reservedJobs[id] = true
		}
	}
	if len(n.incoming) > 0 {
		s.incoming = make(map[int]float64, len(n.incoming))
		for id, d := range n.incoming {
			s.incoming[id] = d
		}
	}
	return s
}

// Restore rewinds the node to a prior Snapshot, reusing live capacity. It
// deliberately does not invoke the residency or pressure watchers: the
// cluster restores its activity and pressure bitmasks wholesale alongside
// the nodes.
func (n *Node) Restore(s Snapshot) {
	n.mem.Restore(s.mem)
	n.jobs = append(n.jobs[:0], s.jobs...)
	n.covered = append(n.covered[:0], s.covered...)
	n.demand = append(n.demand[:0], s.demand...)
	n.flatUntil = append(n.flatUntil[:0], s.flatUntil...)
	n.reserved = s.reserved
	n.down = s.down
	n.draining = s.draining
	n.removed = s.removed
	n.ioActive = s.ioActive
	n.lastPressured = s.lastPressure
	n.faults = s.faults
	n.cpuDelivered = s.cpuDelivered
	n.ioStall = s.ioStall
	clear(n.reservedJobs)
	for id := range s.reservedJobs {
		n.reservedJobs[id] = true
	}
	clear(n.incoming)
	for id, d := range s.incoming {
		n.incoming[id] = d
	}
}

// Tick advances the workstation by one scheduling quantum dt ending at
// virtual time now. Runnable jobs share the CPU round-robin: each receives
// an equal share of the quantum, loses context-switch overhead when
// multiprogrammed, and converts execution time into CPU progress at the
// node's speed factor, degraded by the memory manager's current paging
// stall. Completed jobs are removed and returned.
func (n *Node) Tick(dt time.Duration, now time.Duration) ([]*job.Job, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("node %d: nonpositive quantum %v", n.cfg.ID, dt)
	}
	count := len(n.jobs)
	if count == 0 {
		return nil, nil
	}

	share := dt / time.Duration(count)
	overhead := time.Duration(0)
	if count > 1 {
		overhead = n.cfg.ContextSwitch
	}
	exec := share - overhead
	if exec < 0 {
		exec = 0
	}

	v := n.SpeedFactor()
	stall := n.mem.StallPerCPUSecond() // wall seconds of paging per CPU second
	// Buffer-cache squeeze: when idle memory cannot hold the I/O-active
	// jobs' cache working sets, their reads and writes go to the disk.
	cacheMiss := 1 - n.CacheAvailability()

	// Loop invariants, hoisted. The fast paths below skip float operations
	// only when IEEE 754 guarantees the skipped operation is an exact
	// identity (x/1 == x, x+0 == x for x >= 0), so results stay
	// bit-identical to the straight-line arithmetic.
	execSecFull := exec.Seconds()
	denomBase := 1/v + stall
	lo := now - dt

	done := n.doneScratch[:0]
	for i, j := range n.jobs {
		// Credit only the portion of the quantum the job was actually
		// resident for (it may have been admitted mid-quantum).
		resid := dt
		if from := n.covered[i]; from > lo {
			resid = now - from
		}
		n.covered[i] = now
		if resid <= 0 {
			continue
		}
		execHere := exec
		execSec := execSecFull
		if execHere > resid {
			execHere = resid
			execSec = execHere.Seconds()
		}
		// In execution wall time w the job splits between compute
		// (cpu/v), paging (cpu*stall), and buffer-cache-miss disk time
		// (cpu*ioStall): cpu = w / (1/v + stall + ioStall).
		ioStall := 0.0
		if rate := j.IORate(); rate > 0 && cacheMiss > 0 && n.cfg.DiskMBps > 0 {
			ioStall = rate / n.cfg.DiskMBps * cacheMiss
		}
		cpuSec := execSec
		if denom := denomBase + ioStall; denom != 1 {
			cpuSec = execSec / denom
		}
		cpu := time.Duration(cpuSec * float64(time.Second))
		if rem := j.Remaining(); cpu >= rem {
			cpu = rem
		}
		computeWall := cpu
		if v != 1 {
			computeWall = time.Duration(float64(cpu) / v)
		}
		// Both paging and cache-miss disk time are memory-pressure-
		// induced I/O waits; the Section 5 decomposition folds them into
		// the paging component.
		page := time.Duration(0)
		if ps := stall + ioStall; ps != 0 {
			page = time.Duration(float64(cpu) * ps)
		}
		queue := resid - computeWall - page
		if queue < 0 {
			queue = 0
		}
		finished, err := j.Account(cpu, page, queue, now)
		if err != nil {
			return nil, err
		}
		if n.mem.Pressured() { // FaultRate is nonzero exactly under pressure
			n.faults += float64(cpu) / float64(time.Second) * n.mem.FaultRate()
		}
		if ioStall != 0 {
			n.ioStall += time.Duration(float64(cpu) * ioStall)
		}
		n.cpuDelivered += cpu
		if finished {
			done = append(done, j)
			if err := n.mem.Remove(j.ID); err != nil {
				return nil, err
			}
			delete(n.reservedJobs, j.ID)
			if n.tr != nil {
				n.tr.Emit(obs.Event{At: now, Kind: obs.KindJobDone,
					Node: int32(n.cfg.ID), Job: int32(j.ID), Aux: -1})
			}
			continue
		}
		// Demand evolves with progress; refresh the memory manager only
		// when the job has run past the flat-phase horizon within which
		// its demand provably cannot move.
		if j.CPUDone() > n.flatUntil[i] {
			d, horizon := j.DemandHorizon()
			if d != n.demand[i] {
				if err := n.mem.Update(j.ID, d); err != nil {
					return nil, err
				}
				n.demand[i] = d
			}
			n.flatUntil[i] = horizon
		}
	}
	if len(done) > 0 {
		k := 0
		for i, j := range n.jobs {
			if j.State() == job.StateDone {
				if j.IORate() > 0 {
					n.ioActive--
				}
				continue
			}
			n.jobs[k] = j
			n.covered[k] = n.covered[i]
			n.demand[k] = n.demand[i]
			n.flatUntil[k] = n.flatUntil[i]
			k++
		}
		for i := k; i < len(n.jobs); i++ {
			n.jobs[i] = nil
		}
		n.jobs = n.jobs[:k]
		n.covered = n.covered[:k]
		n.demand = n.demand[:k]
		n.flatUntil = n.flatUntil[:k]
		n.notifyResidency()
	}
	// Demand refreshes and completions above may have moved pressure in
	// either direction; one transition check covers the whole tick.
	n.notifyPressure()
	if len(done) < len(n.doneScratch) {
		clear(n.doneScratch[len(done):]) // drop stale job references
	}
	n.doneScratch = done
	return done, nil
}

// CompletionFloor reports a stretch length k ≤ kMax during which no
// resident job can possibly complete, whatever the memory pressure does
// meanwhile: per-tick CPU progress is bounded by the full execution share
// converted at zero stall, so (remaining-1)/maxCPU ticks are provably
// non-final. The cluster uses the cluster-wide minimum as the window
// within which quantum ticks cannot trigger scheduler callbacks.
func (n *Node) CompletionFloor(dt time.Duration, kMax int64) int64 {
	count := len(n.jobs)
	if count == 0 || dt <= 0 {
		return kMax
	}
	share := dt / time.Duration(count)
	overhead := time.Duration(0)
	if count > 1 {
		overhead = n.cfg.ContextSwitch
	}
	exec := share - overhead
	if exec <= 0 {
		return kMax // no CPU progress possible, so no completions either
	}
	maxCPU := time.Duration(exec.Seconds()*n.SpeedFactor()*float64(time.Second)) + 1
	k := kMax
	for _, j := range n.jobs {
		kj := int64((j.Remaining() - 1) / maxCPU)
		if kj == 0 {
			// A resident job could complete on the very next tick even at
			// maximal per-quantum progress: no stretch exists. Returning
			// immediately skips the remaining residents and, more
			// importantly, spares the cluster a plan/bailout cycle on a
			// near-done node — under pressure that cycle replays the whole
			// stall sequence before discovering the completion.
			return 0
		}
		if kj < k {
			k = kj
		}
	}
	return k
}

// PlanQuanta reports how many consecutive quantum ticks, starting with the
// tick due at now, can be collapsed into one closed-form accounting pass —
// at most kMax. A stretch is collapsible only while every per-tick
// computation is provably identical: all jobs fully resident (no partial
// first quantum), no job reaching completion, and no job crossing its
// flat-memory-phase horizon (which would trigger a demand refresh). The
// per-job quantities are cached on the node for the matching ApplyQuanta;
// a return of 0 or 1 means the caller must take a normal Tick.
func (n *Node) PlanQuanta(dt, now time.Duration, kMax int64) int64 {
	n.planK = 0
	count := len(n.jobs)
	if count == 0 || dt <= 0 || kMax < 2 {
		return 0
	}
	lo := now - dt
	for _, from := range n.covered {
		if from > lo {
			return 0 // admitted mid-quantum: its first tick credits partial residency
		}
	}

	// Identical to Tick's hoisted invariants: nothing below mutates the
	// memory manager, so these stay constant across the whole stretch.
	share := dt / time.Duration(count)
	overhead := time.Duration(0)
	if count > 1 {
		overhead = n.cfg.ContextSwitch
	}
	exec := share - overhead
	if exec < 0 {
		exec = 0
	}
	v := n.SpeedFactor()
	stall := n.mem.StallPerCPUSecond()
	cacheMiss := 1 - n.CacheAvailability()
	execSec := exec.Seconds()
	denomBase := 1/v + stall

	n.planCPU = append(n.planCPU[:0], make([]time.Duration, count)...)
	n.planPage = append(n.planPage[:0], make([]time.Duration, count)...)
	n.planQueue = append(n.planQueue[:0], make([]time.Duration, count)...)
	n.planIO = append(n.planIO[:0], make([]time.Duration, count)...)

	k := kMax
	for i, j := range n.jobs {
		ioStall := 0.0
		if rate := j.IORate(); rate > 0 && cacheMiss > 0 && n.cfg.DiskMBps > 0 {
			ioStall = rate / n.cfg.DiskMBps * cacheMiss
		}
		cpuSec := execSec
		if denom := denomBase + ioStall; denom != 1 {
			cpuSec = execSec / denom
		}
		cpu := time.Duration(cpuSec * float64(time.Second))
		if cpu > 0 {
			// Completion bound: all k ticks must leave demand outstanding.
			if kj := int64((j.Remaining() - 1) / cpu); kj < k {
				k = kj
			}
			// Horizon bound: accumulated service must stay at or below the
			// flat-phase horizon, or a tick would refresh the demand.
			flat := n.flatUntil[i] - j.CPUDone()
			if flat < 0 {
				return 0
			}
			if kj := int64(flat / cpu); kj < k {
				k = kj
			}
			if k < 2 {
				return 0
			}
		}
		computeWall := cpu
		if v != 1 {
			computeWall = time.Duration(float64(cpu) / v)
		}
		page := time.Duration(0)
		if ps := stall + ioStall; ps != 0 {
			page = time.Duration(float64(cpu) * ps)
		}
		queue := dt - computeWall - page
		if queue < 0 {
			queue = 0
		}
		n.planCPU[i] = cpu
		n.planPage[i] = page
		n.planQueue[i] = queue
		if ioStall != 0 {
			n.planIO[i] = time.Duration(float64(cpu) * ioStall)
		}
	}
	n.planNow, n.planDt, n.planK = now, dt, k
	return k
}

// ApplyQuanta charges k quanta planned by PlanQuanta in one pass,
// bit-identical to k sequential Ticks over the same stretch: every
// accumulator is either an exact integer fold (job accounting, delivered
// CPU, I/O stall) or replayed add-by-add in tick order (the page-fault
// float accumulation). k may be smaller than planned — the per-tick
// quantities do not depend on it — but never larger.
func (n *Node) ApplyQuanta(dt, now time.Duration, k int64) error {
	if k < 2 || k > n.planK || dt != n.planDt || now != n.planNow {
		return fmt.Errorf("node %d: apply of %d quanta without a matching plan", n.cfg.ID, k)
	}
	n.planK = 0
	last := now + time.Duration(k-1)*dt
	rate := 0.0
	if n.mem.Pressured() {
		rate = n.mem.FaultRate()
	}
	for i, j := range n.jobs {
		cpu := n.planCPU[i]
		if err := j.AccountBatch(cpu, n.planPage[i], n.planQueue[i], k); err != nil {
			return err
		}
		n.covered[i] = last
		n.cpuDelivered += cpu * time.Duration(k)
		if io := n.planIO[i]; io != 0 {
			n.ioStall += io * time.Duration(k)
		}
	}
	if rate != 0 {
		// Tick accrues faults with one float add per job per quantum;
		// replay the same add sequence so the sum is bit-identical.
		for t := int64(0); t < k; t++ {
			for _, cpu := range n.planCPU {
				n.faults += float64(cpu) / float64(time.Second) * rate
			}
		}
	}
	n.notifyPressure()
	return nil
}

// TickRampBatch advances k quanta in one pass on a node whose only
// per-tick variation is ramping memory demand. Preconditions (checked
// here): zero paging stall, no I/O-active jobs, full residency, and no
// completion within the stretch — then every tick's CPU arithmetic is the
// same constant expression and only the demand bookkeeping evolves. That
// evolution is replayed on scratch state in the exact per-tick,
// per-job order Tick would use — including the running demand total's
// add-by-add float accumulation — so the committed values are
// bit-identical to k sequential Ticks. If the replay would ever cross
// into memory pressure (which changes the next tick's stall and accrues
// page faults), the node is left untouched and the method reports false
// so the caller falls back to ordinary ticks.
func (n *Node) TickRampBatch(dt, now time.Duration, k int64) (bool, error) {
	count := len(n.jobs)
	if count == 0 || dt <= 0 || k < 2 || n.ioActive > 0 {
		return false, nil
	}
	stall := n.mem.StallPerCPUSecond()
	if stall != 0 {
		return false, nil
	}
	lo := now - dt
	for _, from := range n.covered {
		if from > lo {
			return false, nil // admitted mid-quantum: first tick credits partial residency
		}
	}

	// With zero stall and no I/O-active jobs, Tick's per-job pipeline
	// collapses to one shared value chain: ioStall == 0 for every job, so
	// cpu, computeWall, and queue are job-independent. page stays exactly
	// zero (Tick skips the multiply when stall+ioStall == 0).
	share := dt / time.Duration(count)
	overhead := time.Duration(0)
	if count > 1 {
		overhead = n.cfg.ContextSwitch
	}
	exec := share - overhead
	if exec < 0 {
		exec = 0
	}
	v := n.SpeedFactor()
	cpuSec := exec.Seconds()
	if denom := 1/v + stall; denom != 1 {
		cpuSec = cpuSec / denom
	}
	cpu := time.Duration(cpuSec * float64(time.Second))
	if cpu > 0 {
		for _, j := range n.jobs {
			// The caller's completion floor should already guarantee
			// this; re-check so Tick's cpu-clamp branch provably never
			// fires inside the stretch.
			if int64((j.Remaining()-1)/cpu) < k {
				return false, nil
			}
		}
	}
	computeWall := cpu
	if v != 1 {
		computeWall = time.Duration(float64(cpu) / v)
	}
	queue := dt - computeWall
	if queue < 0 {
		queue = 0
	}

	// Replay the demand evolution on scratch. Tick's order per quantum is:
	// for each job — account cpu, check Pressured (fault accrual), then
	// refresh demand past the flat horizon. The pressure check for job i
	// therefore sees the total after jobs 0..i-1 updated this tick; the
	// replay compares at exactly those points and bails on any crossing.
	user := n.mem.UserMB()
	total := n.mem.DemandMB()
	n.rampDemand = append(n.rampDemand[:0], n.demand...)
	n.rampFlat = append(n.rampFlat[:0], n.flatUntil...)
	changed := false
	for t := int64(1); t <= k; t++ {
		adv := time.Duration(t) * cpu
		for i, j := range n.jobs {
			if total > user {
				return false, nil
			}
			if done := j.CPUDone() + adv; done > n.rampFlat[i] {
				d, horizon := j.DemandHorizonAt(done)
				if d != n.rampDemand[i] {
					total += d - n.rampDemand[i]
					if total < 0 {
						total = 0 // Update's clamp, replayed
					}
					n.rampDemand[i] = d
					changed = true
				}
				n.rampFlat[i] = horizon
			}
		}
	}

	// Commit: integer accounting folds exactly; demand state and the
	// replayed total land as sequential ticks would have left them. A
	// pressure crossing caused by the very last update is notified here,
	// just as the final Tick's notifyPressure would have.
	last := now + time.Duration(k-1)*dt
	for i, j := range n.jobs {
		if err := j.AccountBatch(cpu, 0, queue, k); err != nil {
			return false, err
		}
		n.covered[i] = last
		n.cpuDelivered += cpu * time.Duration(k)
	}
	if changed {
		n.rampIDs = n.rampIDs[:0]
		for _, j := range n.jobs {
			n.rampIDs = append(n.rampIDs, j.ID)
		}
		if err := n.mem.ReplayDemands(n.rampIDs, n.rampDemand, total); err != nil {
			return false, err
		}
	}
	copy(n.demand, n.rampDemand)
	copy(n.flatUntil, n.rampFlat)
	n.notifyPressure()
	return true, nil
}

// TickPressuredBatch advances k quanta in one pass on a node under memory
// pressure — the regime where every tick's paging stall feeds back into the
// next tick's arithmetic, which PlanQuanta (constant per-tick quantities)
// and TickRampBatch (zero stall) cannot fold. The stall sequence is
// replayed from a memory.Replay cursor: each quantum hoists the stall from
// the cursor's running demand total exactly as Tick hoists it from the
// manager, each job's cpu/page/queue/ioStall chain runs the identical
// straight-line float arithmetic, page-fault addends are recorded at the
// exact per-job accrual points (against the total as updated by earlier
// jobs that tick), and demand refreshes step the cursor in Tick's
// per-tick, per-job order. The replay bails — leaving the node untouched
// and reporting false — on any pressure-boundary crossing, completion
// clamp, or partial residency, so commits are provably bit-identical to k
// sequential Ticks.
//
// Built plans are cached in a content-keyed ring (see pressPlan): forks
// that Restore to the same warmup prefix re-derive the identical key and
// reuse the fold without replaying.
func (n *Node) TickPressuredBatch(dt, now time.Duration, k int64) (bool, error) {
	count := len(n.jobs)
	if count == 0 || dt <= 0 || k < 2 {
		return false, nil
	}
	if !n.mem.Pressured() {
		return false, nil // unpressured regimes belong to PlanQuanta/TickRampBatch
	}
	lo := now - dt
	for _, from := range n.covered {
		if from > lo {
			return false, nil // admitted mid-quantum: first tick credits partial residency
		}
	}

	remote := n.mem.FaultServiceTime()
	total := n.mem.DemandMB()
	var plan *pressPlan
	for s := range n.pressPlans {
		if p := &n.pressPlans[s]; p.matches(n, dt, k, remote, total) {
			plan = p
			break
		}
	}
	if plan == nil {
		plan = &n.pressPlans[n.pressNext]
		n.pressNext = (n.pressNext + 1) % pressPlanSlots
		if !n.buildPressPlan(plan, dt, k, remote, total) {
			return false, nil
		}
	}
	return true, n.applyPressPlan(plan, now)
}

// buildPressPlan replays k pressured quanta onto plan's scratch, recording
// the key it was built from. Reports false (plan invalidated) if the
// stretch cannot be folded bit-identically.
func (n *Node) buildPressPlan(p *pressPlan, dt time.Duration, k int64, remote time.Duration, total float64) bool {
	p.used = false
	count := len(n.jobs)

	// Tick's hoisted invariants that do not depend on the demand total.
	share := dt / time.Duration(count)
	overhead := time.Duration(0)
	if count > 1 {
		overhead = n.cfg.ContextSwitch
	}
	exec := share - overhead
	if exec < 0 {
		exec = 0
	}
	v := n.SpeedFactor()
	execSec := exec.Seconds()
	// Tick re-reads cache availability every quantum, but within this
	// stretch every tick starts pressured (the replay bails on any
	// crossing), so idle memory is pinned at zero and the per-tick read
	// is the same constant Tick computes now.
	cacheMiss := 1 - n.CacheAvailability()

	// Key.
	p.dt, p.k, p.remote, p.total = dt, k, remote, total
	p.jobs = append(p.jobs[:0], n.jobs...)
	p.ioRate = append(p.ioRate[:0], make([]float64, count)...)
	p.done = append(p.done[:0], make([]time.Duration, count)...)
	p.demand = append(p.demand[:0], n.demand...)
	p.flat = append(p.flat[:0], n.flatUntil...)

	// Outputs and replay scratch.
	p.sumCPU = append(p.sumCPU[:0], make([]time.Duration, count)...)
	p.sumPage = append(p.sumPage[:0], make([]time.Duration, count)...)
	p.sumQueue = append(p.sumQueue[:0], make([]time.Duration, count)...)
	p.sumIO = append(p.sumIO[:0], make([]time.Duration, count)...)
	p.endDemand = append(p.endDemand[:0], n.demand...)
	p.endFlat = append(p.endFlat[:0], n.flatUntil...)
	p.faultStart = n.faults
	p.changed = false
	n.pressRun = append(n.pressRun[:0], make([]time.Duration, count)...)

	n.pressIO = append(n.pressIO[:0], make([]float64, count)...)
	for i, j := range n.jobs {
		rate := j.IORate()
		p.ioRate[i] = rate
		p.done[i] = j.CPUDone()
		n.pressRun[i] = j.CPUDone()
		// Tick recomputes the I/O stall every quantum, but rate, disk
		// bandwidth, and the pressured cache-miss fraction are all
		// constant across the stretch, so the quotient is too.
		if rate > 0 && cacheMiss > 0 && n.cfg.DiskMBps > 0 {
			n.pressIO[i] = rate / n.cfg.DiskMBps * cacheMiss
		}
	}

	// The fault rate is a pure function of the demand total, and the total
	// only moves on a demand refresh — recompute lazily on rep.Step instead
	// of per quantum per job like dense Tick does. faultService is fixed
	// for the stretch (remote backing only changes at control points), and
	// Stall() is exactly FaultRate()*faultService().Seconds(), so the
	// hoisted products are bit-identical to Tick's.
	fsSec := n.mem.FaultServiceTime().Seconds()
	userMB := n.mem.UserMB()
	rep := n.mem.Replay()
	fr := rep.FaultRate()
	// The fault accumulator is replayed here, during the build, by adding
	// each quantum's accrual in exact dense order onto the node's current
	// value (part of the plan key); the commit just installs the result.
	faults := n.faults
	// Re-slice every per-job array to the shared length so the inner
	// loop's indexing is provably in range (bounds checks hoist out).
	jobs := p.jobs[:count]
	pressIO := n.pressIO[:count]
	pressRun := n.pressRun[:count]
	sumCPU := p.sumCPU[:count]
	sumPage := p.sumPage[:count]
	sumQueue := p.sumQueue[:count]
	sumIO := p.sumIO[:count]
	endDemand := p.endDemand[:count]
	endFlat := p.endFlat[:count]
	for t := int64(1); t <= k; t++ {
		if rep.Total() <= userMB {
			return false // stall regime flipped: the next tick is flat/ramp territory
		}
		stall := fr * fsSec
		denomBase := 1/v + stall
		for i, j := range jobs {
			ioStall := pressIO[i]
			cpuSec := execSec
			if denom := denomBase + ioStall; denom != 1 {
				cpuSec = execSec / denom
			}
			cpu := time.Duration(cpuSec * float64(time.Second))
			if cpu >= j.CPUDemand-pressRun[i] {
				return false // Tick's completion clamp would fire inside the stretch
			}
			pressRun[i] += cpu
			computeWall := cpu
			if v != 1 {
				computeWall = time.Duration(float64(cpu) / v)
			}
			page := time.Duration(0)
			if ps := stall + ioStall; ps != 0 {
				page = time.Duration(float64(cpu) * ps)
			}
			queue := dt - computeWall - page
			if queue < 0 {
				queue = 0
			}
			sumCPU[i] += cpu
			sumPage[i] += page
			sumQueue[i] += queue
			if ioStall != 0 {
				sumIO[i] += time.Duration(float64(cpu) * ioStall)
			}
			// Fault accrual point: Tick checks pressure after job i's
			// accounting, i.e. against the total as updated by jobs
			// 0..i-1 this tick. Record the addend; float accumulation is
			// order-dependent, so the commit re-adds the sequence.
			if rep.Total() <= userMB {
				return false // crossing mid-tick changes the accrual set
			}
			faults += float64(cpu) / float64(time.Second) * fr
			// Demand refresh past the flat-phase horizon, stepping the
			// cursor with Update's exact accumulate-then-clamp.
			if pressRun[i] > endFlat[i] {
				d, horizon := j.DemandHorizonAt(pressRun[i])
				if d != endDemand[i] {
					rep.Step(endDemand[i], d)
					fr = rep.FaultRate() // total moved: next accrual sees it
					endDemand[i] = d
					p.changed = true
				}
				endFlat[i] = horizon
			}
		}
	}
	p.endTotal = rep.Total()
	p.faultEnd = faults
	p.used = true
	return true
}

// applyPressPlan commits a stall-replay plan: integer sums fold exactly,
// fault addends re-add in replay order, and the demand state lands as the
// final tick would have left it. A pressure crossing caused by the very
// last refresh is notified here, just as the final Tick's notifyPressure
// would have.
func (n *Node) applyPressPlan(p *pressPlan, now time.Duration) error {
	last := now + time.Duration(p.k-1)*p.dt
	for i, j := range n.jobs {
		if err := j.AccountFold(p.sumCPU[i], p.sumPage[i], p.sumQueue[i]); err != nil {
			return err
		}
		n.covered[i] = last
		n.cpuDelivered += p.sumCPU[i]
		if io := p.sumIO[i]; io != 0 {
			n.ioStall += io
		}
	}
	n.faults = p.faultEnd
	if p.changed {
		n.rampIDs = n.rampIDs[:0]
		for _, j := range n.jobs {
			n.rampIDs = append(n.rampIDs, j.ID)
		}
		if err := n.mem.ReplayDemands(n.rampIDs, p.endDemand, p.endTotal); err != nil {
			return err
		}
	}
	copy(n.demand, p.endDemand)
	copy(n.flatUntil, p.endFlat)
	n.notifyPressure()
	return nil
}
