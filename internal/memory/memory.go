// Package memory models a workstation's memory subsystem: user-space
// capacity, per-job resident demand accounting, idle-space reporting for
// the load index, and the page-fault model that converts memory overcommit
// into paging delay.
//
// Fault model (a documented substitution — see DESIGN.md): the paper
// generates page faults "by an experiment-based model presented in [3]",
// which is not reproduced in the available text. Here, when the sum of job
// demands on a node exceeds user memory, every job runs with an unbacked
// fraction u = 1 - user/total and incurs faults at a rate that grows
// superlinearly in u (thrashing), each fault costing the configured service
// time (10 ms in both simulated clusters).
package memory

import (
	"fmt"
	"time"
)

// Config describes a node's memory hardware and fault model.
type Config struct {
	// CapacityMB is physical memory; UserFraction is the share available
	// to user jobs after the kernel's resident footprint.
	CapacityMB   float64
	UserFraction float64

	// PageKB is the page size; FaultService is the time to service one
	// major fault.
	PageKB       float64
	FaultService time.Duration

	// FaultScale is the fault rate (faults per CPU-second) at 50%
	// unbacked fraction; the rate follows k*u/(1-u) with k = FaultScale.
	FaultScale float64
}

// Defaults from the paper's simulation setup (Section 3.3.1).
const (
	DefaultUserFraction = 0.9375 // ~24 MB kernel residency on a 384 MB node
	DefaultPageKB       = 4
	DefaultFaultService = 10 * time.Millisecond
	// DefaultFaultScale makes sustained overcommit catastrophic, as
	// thrashing is in practice: at 20% unbacked demand a job spends ~2.5
	// wall seconds per CPU second in page-fault stalls, and a deeply
	// overcommitted workstation makes almost no progress. This severity
	// is what lets a few unexpectedly large jobs "block the execution
	// pace of majority jobs" (Section 1).
	DefaultFaultScale = 1000
)

// Validate fills zero fields with defaults and rejects nonsense.
func (c *Config) Validate() error {
	if c.CapacityMB <= 0 {
		return fmt.Errorf("memory: capacity %v MB must be positive", c.CapacityMB)
	}
	if c.UserFraction == 0 {
		c.UserFraction = DefaultUserFraction
	}
	if c.UserFraction <= 0 || c.UserFraction > 1 {
		return fmt.Errorf("memory: user fraction %v outside (0, 1]", c.UserFraction)
	}
	if c.PageKB == 0 {
		c.PageKB = DefaultPageKB
	}
	if c.PageKB <= 0 {
		return fmt.Errorf("memory: page size %v KB must be positive", c.PageKB)
	}
	if c.FaultService == 0 {
		c.FaultService = DefaultFaultService
	}
	if c.FaultService < 0 {
		return fmt.Errorf("memory: fault service %v must be nonnegative", c.FaultService)
	}
	if c.FaultScale == 0 {
		c.FaultScale = DefaultFaultScale
	}
	if c.FaultScale < 0 {
		return fmt.Errorf("memory: fault scale %v must be nonnegative", c.FaultScale)
	}
	return nil
}

// Manager tracks the demands of the jobs resident on one workstation.
// demandEntry is one registered job's demand. The registry is a small
// linear-scan slice rather than a map: a workstation hosts at most its
// CPU-threshold jobs (single digits), and the per-quantum demand refresh
// of ramping jobs makes Update one of the simulator's hottest paths —
// scanning a handful of integers beats hashing at every call.
type demandEntry struct {
	id int
	mb float64
}

type Manager struct {
	cfg     Config
	demands []demandEntry
	total   float64

	// remoteService, when positive, overrides the disk fault service
	// time: pages are fetched from another workstation's idle memory
	// over the network instead of from the local swap disk — the
	// network RAM technique the paper's Section 2.3 points to for jobs
	// bigger than any single workstation's memory.
	remoteService time.Duration

	// version counts the mutations of the state the load board reads (see
	// Version).
	version uint64
}

// NewManager constructs a memory manager, applying config defaults.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg}, nil
}

// Config returns the validated configuration.
func (m *Manager) Config() Config { return m.cfg }

// Version reports a counter that every mutator bumps: Register, Update,
// ReplayDemands, Remove, SetRemoteBacking and Restore. While it stands
// still, every reading of the manager is unchanged, so the load board can
// skip a workstation whose version has not moved since its last refresh.
// It never goes backwards, not even across Restore.
func (m *Manager) Version() uint64 { return m.version }

// UserMB reports the memory available to user jobs.
func (m *Manager) UserMB() float64 { return m.cfg.CapacityMB * m.cfg.UserFraction }

// Register adds a job's demand. Registering an already-registered job is an
// error; use Update for demand growth.
func (m *Manager) Register(jobID int, demandMB float64) error {
	if demandMB < 0 {
		return fmt.Errorf("memory: job %d negative demand %v", jobID, demandMB)
	}
	if m.find(jobID) >= 0 {
		return fmt.Errorf("memory: job %d already registered", jobID)
	}
	m.demands = append(m.demands, demandEntry{id: jobID, mb: demandMB})
	m.total += demandMB
	m.version++
	return nil
}

// find returns the registry index of jobID, or -1.
func (m *Manager) find(jobID int) int {
	for i := range m.demands {
		if m.demands[i].id == jobID {
			return i
		}
	}
	return -1
}

// Update revises a registered job's demand.
func (m *Manager) Update(jobID int, demandMB float64) error {
	if demandMB < 0 {
		return fmt.Errorf("memory: job %d negative demand %v", jobID, demandMB)
	}
	i := m.find(jobID)
	if i < 0 {
		return fmt.Errorf("memory: job %d not registered", jobID)
	}
	old := m.demands[i].mb
	m.demands[i].mb = demandMB
	m.total += demandMB - old
	if m.total < 0 {
		m.total = 0
	}
	m.version++
	return nil
}

// ReplayDemands installs per-job demand values together with the demand
// total produced by an exact add-by-add replay of the sequential Updates
// they stand in for (the node's quantum fold). The total is
// taken as given rather than recomputed from the demands: float addition
// is non-associative, so only the caller's replayed accumulation matches
// the value a sequence of Updates would have left behind.
func (m *Manager) ReplayDemands(ids []int, demands []float64, total float64) error {
	if len(ids) != len(demands) {
		return fmt.Errorf("memory: replay of %d ids with %d demands", len(ids), len(demands))
	}
	for k, id := range ids {
		i := m.find(id)
		if i < 0 {
			return fmt.Errorf("memory: job %d not registered", id)
		}
		m.demands[i].mb = demands[k]
	}
	if total < 0 {
		total = 0
	}
	m.total = total
	m.version++
	return nil
}

// Remove drops a job's demand (completion or migration away).
func (m *Manager) Remove(jobID int) error {
	i := m.find(jobID)
	if i < 0 {
		return fmt.Errorf("memory: job %d not registered", jobID)
	}
	m.total -= m.demands[i].mb
	m.demands = append(m.demands[:i], m.demands[i+1:]...)
	if m.total < 0 {
		m.total = 0
	}
	m.version++
	return nil
}

// Jobs reports how many jobs hold registered demand.
func (m *Manager) Jobs() int { return len(m.demands) }

// DemandMB reports the total registered demand.
func (m *Manager) DemandMB() float64 { return m.total }

// IdleMB reports unclaimed user memory (never negative): the quantity the
// paper accumulates cluster-wide to decide whether a virtual
// reconfiguration can help.
func (m *Manager) IdleMB() float64 { return m.IdleAtMB(m.total) }

// IdleAtMB reports the idle user memory a hypothetical demand total would
// leave. The zero-argument accessors delegate to these *At forms so that a
// replayed total runs through the very same arithmetic as dense ticking —
// the foundation of the quantum fold's bit-identity guarantee.
func (m *Manager) IdleAtMB(total float64) float64 {
	idle := m.UserMB() - total
	if idle < 0 {
		return 0
	}
	return idle
}

// Overcommit reports demand as a fraction of user memory (1.0 = exactly
// full).
func (m *Manager) Overcommit() float64 {
	u := m.UserMB()
	if u <= 0 {
		return 0
	}
	return m.total / u
}

// Pressured reports whether demand exceeds user memory, i.e. the node is
// paging.
func (m *Manager) Pressured() bool { return m.PressuredAt(m.total) }

// PressuredAt reports whether a hypothetical demand total would page.
func (m *Manager) PressuredAt(total float64) bool { return total > m.UserMB() }

// UnbackedFraction reports the share of demand with no physical backing:
// 1 - user/total when pressured, else 0.
func (m *Manager) UnbackedFraction() float64 { return m.unbackedAt(m.total) }

func (m *Manager) unbackedAt(total float64) float64 { return unbacked(m.UserMB(), total) }

// unbacked is the unbacked fraction of a demand total against user memory
// user: 1 - user/total when the total pages, else 0.
func unbacked(user, total float64) float64 {
	if !(total > user) || total <= 0 {
		return 0
	}
	return 1 - user/total
}

// FaultRate reports faults per CPU-second experienced by each resident job
// at the current pressure: k*u/(1-u), capped to keep the model finite as
// u -> 1 (the cap corresponds to every memory access beyond ~97% unbacked
// hitting the fault ceiling).
func (m *Manager) FaultRate() float64 { return m.FaultRateAt(m.total) }

// FaultRateAt reports the fault rate a hypothetical demand total would
// produce, via the identical arithmetic as FaultRate.
func (m *Manager) FaultRateAt(total float64) float64 {
	return faultRate(m.cfg.FaultScale, m.unbackedAt(total))
}

// faultRate is the fault rate at unbacked fraction u for fault scale k.
func faultRate(k, u float64) float64 {
	if u <= 0 {
		return 0
	}
	const uCap = 0.97
	if u > uCap {
		u = uCap
	}
	return k * u / (1 - u)
}

// StallPerCPUSecond reports seconds of page-fault stall incurred per second
// of CPU progress at current pressure.
func (m *Manager) StallPerCPUSecond() float64 {
	return m.StallPerCPUSecondAt(m.total)
}

// StallPerCPUSecondAt reports the stall a hypothetical demand total would
// produce, via the identical arithmetic as StallPerCPUSecond. Sensitive to
// the network-RAM override (SetRemoteBacking).
func (m *Manager) StallPerCPUSecondAt(total float64) float64 {
	return m.FaultRateAt(total) * m.faultService().Seconds()
}

// Replay is a deterministic stall-replay cursor. It walks the demand-total
// trajectory a sequence of Update calls would produce — without mutating
// the manager — and reports the pressure, fault rate and stall dense
// ticking would observe at each point. Because the cursor evaluates
// through the same arithmetic as the *At methods the zero-argument
// accessors delegate to (PressuredAt's comparison, and the unbacked and
// faultRate helpers behind FaultRateAt), and Step reproduces Update's
// accumulate-then-clamp exactly, every float the replay yields is
// bit-identical to the one dense ticking would have computed. Commit the
// final per-job demands and total with ReplayDemands.
type Replay struct {
	m     *Manager
	user  float64 // UserMB, fixed for the cursor's life
	scale float64 // the fault scale
	total float64

	// The pressure terms at total, both zero while it is not pressured.
	// fault is the fault service in seconds, read on first need.
	pressured bool
	rate      float64
	fault     float64
}

// Replay returns a cursor positioned at the manager's current total.
func (m *Manager) Replay() Replay {
	r := Replay{m: m, user: m.UserMB(), scale: m.cfg.FaultScale, total: m.total}
	r.eval()
	return r
}

// eval clamps the cursor's total at zero, as Update does, and evaluates the
// pressure terms there: PressuredAt's comparison and FaultRateAt's
// arithmetic, against the user memory and fault scale read once.
func (r *Replay) eval() {
	if r.total < 0 {
		r.total = 0
	}
	r.pressured = r.total > r.user
	r.rate = 0
	if r.pressured {
		r.rate = faultRate(r.scale, unbacked(r.user, r.total))
		if r.fault == 0 {
			r.fault = r.m.faultService().Seconds()
		}
	}
}

// Total reports the cursor's running demand total.
func (r *Replay) Total() float64 { return r.total }

// Pressured reports whether the cursor's total would be paging.
func (r *Replay) Pressured() bool { return r.pressured }

// Stall reports StallPerCPUSecond at the cursor's total: the same product
// of fault rate and service seconds (zero times zero when unpressured).
func (r *Replay) Stall() float64 { return r.rate * r.fault }

// Step applies one job's demand revision (oldMB -> newMB) with exactly
// Update's accumulation: total += new - old, clamped at zero. Replayed
// revisions must arrive in the same order the dense path would issue them;
// float addition is non-associative.
func (r *Replay) Step(oldMB, newMB float64) {
	r.total += newMB - oldMB
	// The pressure terms stay zero below user memory; eval also clamps.
	if r.total < 0 || r.total > r.user || r.pressured {
		r.eval()
	}
}

// UserMB reports the user memory the cursor's total is compared against.
func (r *Replay) UserMB() float64 { return r.user }

// SetUnpressured moves an unpressured cursor to total, the end of a chain
// of Steps the caller accumulated itself (total += new - old, in order)
// whose every intermediate total lay in [0, UserMB]: along such a chain no
// Step re-evaluates the pressure terms, so only the total moves. The
// cursor is left as the last Step would have left it.
func (r *Replay) SetUnpressured(total float64) {
	r.total = total
	if r.total < 0 || r.total > r.user || r.pressured {
		r.eval()
	}
}

// SetRemoteBacking makes page faults hit remote idle memory over the
// network at the given per-page service time instead of the local swap
// disk. A nonpositive service restores disk paging.
func (m *Manager) SetRemoteBacking(service time.Duration) {
	if service < 0 {
		service = 0
	}
	m.remoteService = service
	m.version++
}

// RemoteBacked reports whether faults are currently served by network RAM.
func (m *Manager) RemoteBacked() bool { return m.remoteService > 0 }

func (m *Manager) faultService() time.Duration {
	if m.remoteService > 0 {
		return m.remoteService
	}
	return m.cfg.FaultService
}

// Snapshot captures the manager's mutable state (per-job demands, the
// demand total, and the network-RAM override) for cluster forking.
type Snapshot struct {
	demands       []demandEntry
	total         float64
	remoteService time.Duration
}

// Snapshot captures the mutable state.
func (m *Manager) Snapshot() Snapshot {
	return Snapshot{
		demands:       append([]demandEntry(nil), m.demands...),
		total:         m.total,
		remoteService: m.remoteService,
	}
}

// Restore rewinds the manager to a prior Snapshot, reusing live capacity.
func (m *Manager) Restore(s Snapshot) {
	m.demands = append(m.demands[:0], s.demands...)
	m.total = s.total
	m.remoteService = s.remoteService
	m.version++
}

// SoloStallPerCPUSecond reports the stall a single job of the given demand
// would suffer if it were alone on this node — used when a reserved
// workstation runs one oversized job against its own swap (Section 2.3).
func (m *Manager) SoloStallPerCPUSecond(demandMB float64) float64 {
	user := m.UserMB()
	if demandMB <= user || demandMB <= 0 {
		return 0
	}
	u := 1 - user/demandMB
	const uCap = 0.97
	if u > uCap {
		u = uCap
	}
	return m.cfg.FaultScale * u / (1 - u) * m.faultService().Seconds()
}
