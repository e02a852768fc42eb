// Package node models one workstation: a CPU scheduled round-robin among
// resident jobs (the paper's intra-workstation scheduling), a job-slot
// limit (the CPU threshold), and a memory manager whose pressure converts
// CPU progress into paging delay. Nodes know nothing about load sharing;
// inter-workstation policy lives above them.
package node

import (
	"fmt"
	"math"
	"math/bits"
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

	// cursor[i] is jobs[i]'s phase cursor (job.Segment): while the job's
	// service stays inside it, a flat cursor skips the demand refresh and a
	// ramp steps the demand without rescanning the profile. It caches only
	// what the job's profile and service determine, so Snapshot leaves it
	// out and Restore keeps it only for a job that stays at its index.
	cursor []job.Segment

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

	// fold is Fold's per-job state and foldEnd where the last Fold left it;
	// foldIDs is the demand-commit ID list. A Fold that starts where the
	// last one ended resumes from them, and any status mutation voids them
	// (foldEnd.version), so they are deliberately excluded from
	// Snapshot/Restore.
	fold    []foldJob
	foldEnd foldEnd
	foldIDs []int

	// ramps is advance's scratch for a ramp run.
	ramps []rampJob

	// ceiling is progressCeiling's last result, cpu, for quantum length dt
	// and jobs residents; it derives from the configuration alone.
	ceiling struct {
		dt   time.Duration
		jobs int
		cpu  time.Duration
	}

	// doneScratch backs Fold's completed-jobs return value. Callers
	// consume the slice before the node's next Fold, so reusing one
	// backing array keeps completion-bearing quanta allocation-free.
	doneScratch []*job.Job

	// version counts the node's own status mutations; StatusVersion adds
	// the memory manager's.
	version uint64
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
	n.cursor = append(n.cursor, job.Segment{})
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
	n.cursor = append(n.cursor[:idx], n.cursor[idx+1:]...)
	n.notifyResidency()
}

// StatusVersion reports a counter that moves whenever LoadStatus may have
// changed: the node bumps it in Admit, AttachMigrated, Detach,
// ExpectMigration, CancelExpected, SetReserved, Crash, Recover,
// StartDrain, Remove, Restore, and in Fold on a node with residents, and the memory manager's own version (memory.Manager.Version)
// is added in, so a demand changed through Memory() moves it too. It never
// goes backwards. The load board compares it with the value it saw at its
// last refresh and re-reads only the workstations whose version moved.
func (n *Node) StatusVersion() uint64 { return n.version + n.mem.Version() }

// ID reports the workstation's identifier.
func (n *Node) ID() int { return n.cfg.ID }

// Config returns the validated configuration.
func (n *Node) Config() Config { return n.cfg }

// Slots reports the job slot count (Config.CPUThreshold) without copying
// the configuration.
func (n *Node) Slots() int { return n.cfg.CPUThreshold }

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

// DemandAt reports the i-th resident job's memory demand as registered with
// the memory manager. It equals JobAt(i).MemoryDemandMB(), since every tick
// and fold refreshes the registration as the job progresses, but reads it
// without rescanning the job's phase profile.
func (n *Node) DemandAt(i int) float64 { return n.demand[i] }

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
	n.version++
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
	n.version++
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
	n.version++
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
	n.version++
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
	n.cursor = nil
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
	n.version++
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
	n.version++
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
	n.version++
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

// IOActiveJobs reports resident jobs with nonzero I/O rates — the I/O
// load status the load index publishes. The count is maintained
// incrementally (job I/O rates are fixed before admission).
func (n *Node) IOActiveJobs() int { return n.ioActive }

// CacheAvailability reports how much of the buffer-cache working set the
// node's I/O-active jobs can keep in memory, in [0, 1]. With no I/O-active
// jobs the cache is trivially sufficient.
func (n *Node) CacheAvailability() float64 { return n.cacheAvailabilityAt(n.mem.DemandMB()) }

// cacheAvailabilityAt is CacheAvailability at a hypothetical demand total,
// so Fold's replayed totals run through the same arithmetic as the
// registry's.
func (n *Node) cacheAvailabilityAt(total float64) float64 {
	need := n.cfg.IOCacheNeedMB * float64(n.ioActive)
	if need <= 0 {
		return 1
	}
	return min(n.mem.IdleAtMB(total)/need, 1)
}

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
	n.version++
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
	n.version++
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
	n.version++
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
	for i, j := range n.jobs {
		if d := n.demand[i]; d > bestDemand {
			best = j
			bestDemand = d
		}
	}
	return best
}

// Snapshot captures the workstation's complete mutable state for cluster
// forking: flags, resident jobs (the pointers; job state is snapshotted
// separately by the cluster), per-job accounting baselines, demand caches,
// migration holds and the memory manager.
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
	ioActive     int
	lastPressure bool
	incoming     map[int]float64
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
		ioActive:     n.ioActive,
		lastPressure: n.lastPressured,
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
	n.version++
	n.mem.Restore(s.mem)
	// A cursor whose job stays at its index still describes that job's
	// profile; the rewound service rebuilds it if it left the cursor.
	cursor := n.cursor[:0]
	for i, j := range s.jobs {
		var c job.Segment
		if i < len(n.jobs) && n.jobs[i] == j {
			c = n.cursor[i]
		}
		cursor = append(cursor, c)
	}
	n.cursor = cursor
	n.jobs = append(n.jobs[:0], s.jobs...)
	n.covered = append(n.covered[:0], s.covered...)
	n.demand = append(n.demand[:0], s.demand...)
	n.reserved = s.reserved
	n.down = s.down
	n.draining = s.draining
	n.removed = s.removed
	n.ioActive = s.ioActive
	n.lastPressured = s.lastPressure
	clear(n.reservedJobs)
	for id := range s.reservedJobs {
		n.reservedJobs[id] = true
	}
	clear(n.incoming)
	for id, d := range s.incoming {
		n.incoming[id] = d
	}
}

// execShare is each resident job's execution time in a quantum of length
// dt: an equal round-robin share of it, less the context switch when the
// CPU is multiprogrammed, and never negative.
func (n *Node) execShare(dt time.Duration) time.Duration {
	share := dt / time.Duration(len(n.jobs))
	if len(n.jobs) > 1 {
		share -= n.cfg.ContextSwitch
	}
	return max(share, 0)
}

// quantum holds one tick's job-independent terms, evaluated at the demand
// total the tick starts from.
type quantum struct {
	exec      time.Duration
	execSec   float64
	v         float64 // speed factor
	stall     float64 // wall seconds of paging per CPU second
	denomBase float64
	cacheMiss float64 // share of the I/O-active jobs' cache need not held
}

// newQuantum evaluates a quantum of length dt at paging stall stall and
// cache-miss share miss.
func (n *Node) newQuantum(dt time.Duration, stall, miss float64) quantum {
	exec := n.execShare(dt)
	v := n.SpeedFactor()
	return quantum{exec: exec, execSec: exec.Seconds(), v: v,
		stall: stall, denomBase: 1/v + stall, cacheMiss: miss}
}

// ioPerMiss is job j's buffer-cache disk stall per CPU second at a full
// cache miss: its I/O rate over the disk bandwidth, or zero for a job
// without I/O.
func (n *Node) ioPerMiss(j *job.Job) float64 {
	if rate := j.IORate(); rate > 0 && n.cfg.DiskMBps > 0 {
		return rate / n.cfg.DiskMBps
	}
	return 0
}

// setPressure moves the quantum to a new stall and cache-miss share and
// reports whether either changed; if not, every job's charge is the same.
func (q *quantum) setPressure(stall, miss float64) (moved bool) {
	if stall == q.stall && miss == q.cacheMiss {
		return false
	}
	q.stall, q.denomBase, q.cacheMiss = stall, 1/q.v+stall, miss
	return true
}

// charge is one job's accounting for one quantum: CPU progress, paging
// stall (which includes the buffer-cache-miss disk time), and time spent
// runnable but not executing.
type charge struct{ cpu, page, queue time.Duration }

// charge computes a job's quantum, given its ioPerMiss, resid of residency
// within the quantum and rem of outstanding CPU demand. The fast paths skip
// a float operation only where IEEE 754 makes it an exact identity (x/1 ==
// x, x+0 == x for x >= 0), so results stay bit-identical to the
// straight-line arithmetic.
func (q *quantum) charge(ioPer float64, resid, rem time.Duration) charge {
	execSec := q.execSec
	if q.exec > resid {
		execSec = resid.Seconds()
	}
	// In execution wall time w the job splits between compute (cpu/v),
	// paging (cpu*stall), and buffer-cache-miss disk time (cpu*ioStall):
	// cpu = w / (1/v + stall + ioStall).
	ioStall := 0.0
	if ioPer > 0 && q.cacheMiss > 0 {
		ioStall = ioPer * q.cacheMiss
	}
	cpuSec := execSec
	if denom := q.denomBase + ioStall; denom != 1 {
		cpuSec = execSec / denom
	}
	c := charge{cpu: min(time.Duration(cpuSec*float64(time.Second)), rem)}
	computeWall := c.cpu
	if q.v != 1 {
		computeWall = time.Duration(float64(c.cpu) / q.v)
	}
	// Both paging and cache-miss disk time are memory-pressure-induced
	// I/O waits; the Section 5 decomposition folds them into paging.
	if ps := q.stall + ioStall; ps != 0 {
		c.page = time.Duration(float64(c.cpu) * ps)
	}
	c.queue = max(resid-computeWall-c.page, 0)
	return c
}

// add folds k quanta of charge d into c.
func (c *charge) add(d charge, k int64) {
	c.cpu += d.cpu * time.Duration(k)
	c.page += d.page * time.Duration(k)
	c.queue += d.queue * time.Duration(k)
}

// CompletionFloor reports a stretch length k ≤ kMax during which no
// resident job can possibly complete, whatever the memory pressure does
// meanwhile: per-tick CPU progress is bounded by the full execution share
// converted at zero stall, so (remaining-1)/maxCPU ticks are provably
// non-final. The cluster uses the cluster-wide minimum as the window
// within which quantum ticks cannot trigger scheduler callbacks.
func (n *Node) CompletionFloor(dt time.Duration, kMax int64) int64 {
	if len(n.jobs) == 0 || dt <= 0 {
		return kMax
	}
	maxCPU := n.progressCeiling(dt)
	if maxCPU == 0 {
		return kMax // no CPU progress possible, so no completions either
	}
	// (remaining-1)/maxCPU rounds down monotonically, so the job nearest
	// completion sets the floor and one division serves the node.
	least := time.Duration(math.MaxInt64)
	for _, j := range n.jobs {
		rem := j.Remaining() - 1
		if rem < maxCPU {
			// A resident job could complete on the very next tick even at
			// maximal per-quantum progress: no stretch exists, and the
			// remaining residents need not be scanned.
			return 0
		}
		least = min(least, rem)
	}
	if kMax <= 1 {
		return kMax
	}
	return min(kMax, int64(least/maxCPU))
}

// progressCeiling bounds one job's CPU progress in a quantum of length dt:
// its full execution share converted at zero stall, plus a nanosecond of
// rounding, or zero when the share is empty. It depends only on dt and the
// resident count, so the node keeps the last one computed.
func (n *Node) progressCeiling(dt time.Duration) time.Duration {
	if c := &n.ceiling; c.dt != dt || c.jobs != len(n.jobs) {
		c.dt, c.jobs, c.cpu = dt, len(n.jobs), 0
		if exec := n.execShare(dt); exec > 0 {
			c.cpu = time.Duration(exec.Seconds()*n.SpeedFactor()*float64(time.Second)) + 1
		}
	}
	return n.ceiling.cpu
}

// foldJob is one resident job's running state across Folds: the charge
// every tick currently makes, the CPU service the job had when that charge
// took effect, the residency its next charge credits, its demand, its phase
// cursor (the node's own, stepped in place) and the running Fold's sums up
// to then.
type foldJob struct {
	j      *job.Job
	ioPer  float64 // the job's ioPerMiss
	charge charge
	done   time.Duration
	resid  time.Duration
	demand float64
	cursor *job.Segment
	sum    charge
}

// foldEnd is where the last Fold left the node: the quantum and replay
// cursor at its final demand total, whether the per-job charges still
// match that quantum (stale if not) and whether every job sat inside a
// flat cursor. Its key — the StatusVersion after the commit, the quantum
// length and the instant of the next tick due — names the only Fold that
// may resume from it; any status mutation in between moves the version.
type foldEnd struct {
	version       uint64
	dt, next      time.Duration
	valid         bool
	q             quantum
	rep           memory.Replay
	stale, steady bool
}

// Fold advances the workstation by the k scheduling quanta of length dt due
// at now, now+dt, …, now+(k-1)*dt, in one pass. In each quantum the resident
// jobs share the CPU round-robin: each receives an equal share of the
// quantum, loses context-switch overhead when multiprogrammed, and converts
// execution time into CPU progress at the node's speed factor, degraded by
// the paging stall and buffer-cache misses at the demand total the quantum
// starts from. Jobs that complete on the last quantum are removed and
// returned in round-robin order; the slice is reused by the next Fold. The
// caller guarantees that no job completes on an earlier quantum
// (CompletionFloor(dt, k-1) is k-1), so nothing a tick before the last does
// reaches beyond the node; Fold fails otherwise.
//
// A Fold that starts at the instant the last one would have ticked next,
// with the same quantum and no status mutation in between, resumes from
// the quantum, replay cursor and charges that one ended with; any other
// rebuilds them, crediting each job only for the part of the first quantum
// it was resident for (it may have been admitted mid-quantum). Either way
// advance makes the ticks, and the commit books them.
func (n *Node) Fold(dt, now time.Duration, k int64) ([]*job.Job, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("node %d: nonpositive quantum %v", n.cfg.ID, dt)
	}
	if len(n.jobs) == 0 || k <= 0 {
		return nil, nil
	}
	end := &n.foldEnd
	resume := end.valid && end.version == n.StatusVersion() && end.dt == dt && end.next == now
	end.valid, end.dt = false, dt
	n.version++
	if cap(n.fold) < len(n.jobs) {
		n.fold = make([]foldJob, len(n.jobs))
	}
	fold := n.fold[:len(n.jobs)]
	partial := false
	if !resume {
		for i, j := range n.jobs {
			fold[i] = foldJob{j: j, ioPer: n.ioPerMiss(j), done: j.CPUDone(), resid: dt,
				demand: n.demand[i], cursor: &n.cursor[i]}
			if from := n.covered[i]; from > now-dt {
				fold[i].resid, partial = now-from, true
			}
		}
		end.rep = n.mem.Replay()
		end.q = n.newQuantum(dt, end.rep.Stall(), 1-n.cacheAvailabilityAt(end.rep.Total()))
		end.stale = true
	}
	seg, finished := end.advance(n, fold, k, partial)
	if finished > 0 && finished < k {
		return nil, fmt.Errorf("node %d: a job completes on quantum %d of a %d-quantum fold", n.cfg.ID, finished, k)
	}

	// Commit: integer sums fold exactly, and the demand registry takes the
	// cursor's total, accumulated in Update's order, unless the total is
	// bit for bit and every demand equal to what the registry holds. A
	// completed job is booked at the last quantum and leaves the registry;
	// every other job's done moves on to its service, so the charges carry
	// into a resuming Fold.
	last := now + time.Duration(k-1)*dt
	moved := finished > 0 || math.Float64bits(end.rep.Total()) != math.Float64bits(n.mem.DemandMB())
	if finished > 0 {
		clear(n.doneScratch) // drop the last completions' job references
		n.doneScratch = n.doneScratch[:0]
	}
	for i := range fold {
		f := &fold[i]
		moved = moved || f.demand != n.demand[i]
		f.sum.add(f.charge, seg)
		f.done += f.charge.cpu * time.Duration(seg)
		n.covered[i] = last
		n.demand[i] = f.demand
		if f.done < f.j.CPUDemand {
			if err := f.j.AccountFold(f.sum.cpu, f.sum.page, f.sum.queue); err != nil {
				return nil, err
			}
		} else if err := n.complete(f.j, f.sum, last); err != nil {
			return nil, err
		}
		f.sum = charge{}
	}
	if finished > 0 {
		n.compact()
	}
	if moved {
		ids := n.foldIDs[:0]
		for _, j := range n.jobs {
			ids = append(ids, j.ID)
		}
		n.foldIDs = ids
		if err := n.mem.ReplayDemands(ids, n.demand, end.rep.Total()); err != nil {
			return nil, err
		}
	}
	if finished > 0 {
		n.notifyResidency()
		n.notifyPressure()
		return n.doneScratch, nil
	}
	end.version, end.next, end.valid = n.StatusVersion(), now+time.Duration(k)*dt, true
	n.notifyPressure()
	return nil, nil
}

// complete books a job's last quanta, sum, with its completion at instant
// at, and takes it out of the registry and the reserved set; compact then
// drops it from the resident set.
func (n *Node) complete(j *job.Job, sum charge, at time.Duration) error {
	if _, err := j.Account(sum.cpu, sum.page, sum.queue, at); err != nil {
		return err
	}
	n.doneScratch = append(n.doneScratch, j)
	if err := n.mem.Remove(j.ID); err != nil {
		return err
	}
	delete(n.reservedJobs, j.ID)
	if n.tr != nil {
		n.tr.Emit(obs.Event{At: at, Kind: obs.KindJobDone,
			Node: int32(n.cfg.ID), Job: int32(j.ID), Aux: -1})
	}
	return nil
}

// compact drops the completed jobs from the resident set, preserving
// round-robin order.
func (n *Node) compact() {
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
		n.cursor[k] = n.cursor[i]
		k++
	}
	clear(n.jobs[k:])
	n.jobs = n.jobs[:k]
	n.covered = n.covered[:k]
	n.demand = n.demand[:k]
	n.cursor = n.cursor[:k]
}

// advance makes the k ticks of a Fold from the state e holds, replaying the
// per-tick, per-job order of sequential ticks on the replay cursor: each
// tick reads its stall and cache miss from the cursor's total, and a job
// whose demand moves steps the cursor. While the stall and cache miss stand
// still every tick charges each job the same amounts, so the integer sums
// are multiplies, and the ticks before the first job leaves its phase
// cursor or completes fold as one run. There are four regimes:
//
//   - In a steady run every job sits inside a flat cursor, so the total
//     stands still too and the run costs one pass over the jobs.
//   - In a ramp run some job ramps, but the total starts below user memory
//     and no resident is I/O-active, so the stall and cache miss stay zero
//     while no step takes the total below zero and every tick ends at or
//     below user memory; each tick steps only the ramping jobs' demands
//     (rampRun).
//   - In a pressured run some job ramps and the total starts above user
//     memory, but no resident is I/O-active and none is on a partial first
//     quantum, so every job takes the same charge; each tick adds it once,
//     steps only the ramping jobs' demands through the replay, reads the
//     stall once and recharges only if the quantum moved (pressuredRun).
//   - A full tick is one pass over the jobs; on a tick whose quantum moved,
//     each job closes its old charge and takes the new one in that same
//     pass. It is the only per-tick fallback and covers every regime, the
//     first tick of a ramp run that would clamp or end pressured included:
//     a pressure crossing in either direction is just another total for
//     the next tick to read. A job completes only on a full tick: it takes
//     a charge capped at its remaining demand, as every charge is, and its
//     demand leaves the total at its place in job order, as a step to zero.
//
// The pressure watcher sees one notification for the whole stretch: it
// only records the latest state.
//
// It reports seg, the ticks made at the final charges, and finished, the
// number of ticks made when the first job completed (zero if none did);
// it stops there. partial reports a rebuild that credits some job a
// partial first quantum. The loop lives apart from Fold's set-up and
// commit, which leaves the compiler fewer live values to spill.
func (e *foldEnd) advance(n *Node, fold []foldJob, k int64, partial bool) (seg, finished int64) {
	qv, repv, io := e.q, e.rep, n.ioActive > 0
	q, rep := &qv, &repv
	// seg counts the ticks made at the current charges, so a job's CPU
	// service is its done plus seg of its charge; stale marks charges that
	// no longer match q, and steady that the last tick left every job
	// inside a flat cursor. Charges are current only after a tick that
	// progressed every job (the partial first tick is always followed by a
	// stale one), so then every cursor covers its job's service.
	stale, steady := e.stale, e.steady
	for t := int64(0); t < k; {
		if !stale && (steady || !io && !rep.Pressured()) {
			// Fold the run of ticks before the first job leaves its
			// cursor or completes, collecting the ramping jobs on the way.
			run, ramps := k-t, n.ramps[:0]
			for i := range fold {
				// Each job's service must stay inside its cursor and short
				// of its demand; the product is exact, so only a bound that
				// binds costs a division.
				f := &fold[i]
				if cpu := f.charge.cpu; cpu > 0 {
					room := min(f.cursor.Until, f.j.CPUDemand-1) - f.done
					if hi, lo := bits.Mul64(uint64(cpu), uint64(seg+run)); hi != 0 || lo > uint64(room) {
						run = int64(room/cpu) - seg
					}
				}
				if !f.cursor.Flat() {
					ramps = append(ramps, rampJob{f: f, svc: f.done + f.charge.cpu*time.Duration(seg)})
				}
			}
			n.ramps = ramps
			if run > 0 {
				if len(ramps) > 0 {
					run = rampRun(ramps, rep, run)
				}
				seg += run
				if t += run; t == k {
					break
				}
			}
		} else if !partial && !steady && !io && rep.Pressured() {
			// The run closes every charge and leaves them current.
			r := e.pressuredRun(n, fold, q, rep, k-t, seg, stale)
			seg, stale = 0, false
			if t += r; t == k {
				break
			}
		}
		// Then one tick in full. On a stale tick each job first closes its
		// charge after seg ticks and takes q's at the residency it is due:
		// a partial one only on the first tick after a rebuild, which skips
		// a job resident for none of it.
		total, pressured := rep.Total(), rep.Pressured()
		made := seg + 1
		if stale {
			made = 1
		}
		steady = true
		for i := range fold {
			f := &fold[i]
			if stale {
				f.sum.add(f.charge, seg)
				f.done += f.charge.cpu * time.Duration(seg)
				resid := f.resid
				f.charge, f.resid = charge{}, e.dt
				if resid <= 0 {
					steady = steady && f.cursor.Flat() && f.cursor.Covers(f.done)
					continue
				}
				f.charge = q.charge(f.ioPer, resid, f.j.CPUDemand-f.done)
			}
			done := f.done + f.charge.cpu*time.Duration(made)
			if done >= f.j.CPUDemand {
				// The job completes: it closes its charge, and a charge
				// taken before its last tick is capped at what remains.
				if !stale {
					f.sum.add(f.charge, seg)
					f.done += f.charge.cpu * time.Duration(seg)
					f.charge = q.charge(f.ioPer, e.dt, f.j.CPUDemand-f.done)
				}
				f.sum.add(f.charge, 1)
				f.done += f.charge.cpu
				f.charge = charge{}
				rep.Step(f.demand, 0)
				f.demand = 0
				finished = t + 1
				continue
			}
			if !f.cursor.Covers(done) {
				*f.cursor = f.j.SegmentAt(done)
			} else if f.cursor.Flat() {
				continue
			}
			if d := f.cursor.DemandAt(done); d != f.demand {
				rep.Step(f.demand, d)
				f.demand = d
			}
			steady = steady && f.cursor.Flat()
		}
		// A partial residency is credited once: the next tick recharges.
		seg, stale, partial = made, partial, false
		t++
		if finished > 0 {
			break
		}
		// Below user memory with no I/O-active job the stall and cache miss
		// stay zero whatever the total does, so the quantum holds.
		if rep.Total() != total && (pressured || rep.Pressured() || io) {
			stale = q.setPressure(rep.Stall(), 1-n.cacheAvailabilityAt(rep.Total())) || stale
		}
	}
	e.q, e.rep, e.stale, e.steady = qv, repv, stale, steady
	return seg, finished
}

// rampJob is one ramping job in a ramp or pressured run: its fold entry,
// its CPU service (at the last tick made in a ramp run, at entry in a
// pressured run) and, in a ramp run, its demand a tick on.
type rampJob struct {
	f    *foldJob
	svc  time.Duration
	next float64
}

// rampRun makes up to run ticks of a ramp run from an unpressured cursor
// and reports how many it made. Each tick evaluates the ramping jobs'
// demands a tick on and accumulates their moves in fold order, as Step
// does; a tick commits only if no intermediate total goes below zero,
// where Step would clamp, and the tick ends at or below user memory, so
// the quantum holds. A total that passes above user memory between two
// jobs' steps and comes back below leaves the stall at zero: nothing reads
// it in between. The first tick that would clamp or end pressured is left
// for a full tick. Flat jobs neither step nor leave their cursors inside
// the run.
func rampRun(ramps []rampJob, rep *memory.Replay, run int64) int64 {
	total, user := rep.Total(), rep.UserMB()
	r := int64(0)
ticks:
	for ; r < run; r++ {
		tot := total
		for x := range ramps {
			p := &ramps[x]
			f := p.f
			if p.next = f.cursor.DemandAt(p.svc + f.charge.cpu); p.next != f.demand {
				if tot += p.next - f.demand; tot < 0 {
					break ticks
				}
			}
		}
		if tot > user {
			break
		}
		total = tot
		for x := range ramps {
			p := &ramps[x]
			p.svc += p.f.charge.cpu
			p.f.demand = p.next
		}
	}
	rep.SetUnpressured(total)
	return r
}

// pressuredRun makes up to run ticks of a pressured run from the state
// advance holds (charges made for seg ticks, stale if they no longer match
// q) and reports how many it made. With no I/O-active resident and every
// job resident for the whole quantum, each job's charge is q.charge(0, dt,
// rem), and the cap at its outstanding demand rem cannot bind while its
// service stays short of its demand, so one charge serves every job. Each
// tick adds it to one shared sum and service, steps the ramping jobs'
// demands through the replay in fold order, and then makes the full
// tick's pressure test: only a moved total reads the stall, and only a
// moved quantum recomputes the charge. The run stops before the first tick
// on which some job's service would leave its cursor or reach its demand,
// which is made in full; a job whose cursor does not cover its service
// (after a tick that skipped it, say) leaves the run empty. On entry every
// job closes its charge after seg ticks; on exit each adds the shared sum
// and service (integer sums are associative) and takes the current charge,
// so the caller carries on with current charges and seg at zero.
func (e *foldEnd) pressuredRun(n *Node, fold []foldJob, q *quantum, rep *memory.Replay, run, seg int64, stale bool) int64 {
	c := fold[0].charge
	if stale {
		c = q.charge(0, e.dt, math.MaxInt64)
	}
	room, ramps := time.Duration(math.MaxInt64), n.ramps[:0]
	for i := range fold {
		f := &fold[i]
		f.sum.add(f.charge, seg)
		f.done += f.charge.cpu * time.Duration(seg)
		room = min(room, min(f.cursor.Until, f.j.CPUDemand-1)-f.done)
		if !f.cursor.Covers(f.done) {
			room = -1
		}
		if !f.cursor.Flat() {
			ramps = append(ramps, rampJob{f: f, svc: f.done})
		}
	}
	n.ramps = ramps
	var sum charge
	svc, r := time.Duration(0), int64(0)
	for ; r < run && svc+c.cpu <= room; r++ {
		svc += c.cpu
		sum.add(c, 1)
		total, pressured := rep.Total(), rep.Pressured()
		for x := range ramps {
			p := &ramps[x]
			f := p.f
			if d := f.cursor.DemandAt(p.svc + svc); d != f.demand {
				rep.Step(f.demand, d)
				f.demand = d
			}
		}
		if rep.Total() != total && (pressured || rep.Pressured()) && q.setPressure(rep.Stall(), 0) {
			c = q.charge(0, e.dt, math.MaxInt64)
		}
	}
	for i := range fold {
		f := &fold[i]
		f.sum.add(sum, 1)
		f.done += svc
		f.charge = c
	}
	return r
}
