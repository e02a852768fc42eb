// Package faults is a deterministic, seed-driven fault-injection layer for
// the cluster simulator. A Plan describes three failure dimensions of a
// real cluster on a shared Ethernet:
//
//   - workstation crashes and repairs (exponential MTBF/MTTR per node),
//     with a policy for the jobs lost in the crash (kill or requeue);
//   - dropped load-information exchanges, leaving the board serving stale
//     vectors for the affected workstations;
//   - in-flight migration transfers aborted partway through their netlink
//     transfer, with bounded exponential-backoff retries charged in
//     simulated time;
//   - correlated failure domains (racks or zones, node ID modulo Domains):
//     domain-wide crash waves that take every member down together, and
//     network partitions that silence a domain's load-information
//     exchanges while its members keep computing.
//
// The Injector draws every fault from its own seeded random streams — one
// per node for crash timing, one per node for exchange drops, one for
// migration aborts, one per domain for waves and one for partitions — so a
// fault schedule is a pure function of the plan, independent of any other
// randomness in the simulation and identical at any parallel fan-out
// width. Per-node crash chains and domain waves can both claim the same
// workstation; the injector arbitrates with per-node ownership so a
// crash/repair pair is always emitted by whichever dimension actually took
// the node down.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"vrcluster/internal/obs"
	"vrcluster/internal/sim"
)

// CrashPolicy decides the fate of jobs resident on a crashed workstation.
type CrashPolicy int

// Crash policies.
const (
	// Kill terminates the lost jobs permanently; they are recorded as
	// killed and never complete.
	Kill CrashPolicy = iota
	// Requeue resubmits the lost jobs from their home workstations; with
	// no checkpointing they restart from scratch.
	Requeue
)

// String names the policy for flags and reports.
func (p CrashPolicy) String() string {
	switch p {
	case Kill:
		return "kill"
	case Requeue:
		return "requeue"
	default:
		return fmt.Sprintf("crashpolicy(%d)", int(p))
	}
}

// ParseCrashPolicy converts a flag value into a CrashPolicy.
func ParseCrashPolicy(s string) (CrashPolicy, error) {
	switch s {
	case "kill":
		return Kill, nil
	case "requeue":
		return Requeue, nil
	default:
		return 0, fmt.Errorf("faults: unknown crash policy %q (want kill or requeue)", s)
	}
}

// Plan configures fault injection for one run. The zero value disables all
// fault dimensions and every self-healing knob takes its default.
type Plan struct {
	// Seed drives the injector's private random streams. Zero picks
	// DefaultSeed so a plan is never silently coupled to the cluster seed.
	Seed int64

	// MTBF is each workstation's mean time between failures (exponential);
	// zero disables crashes. MTTR is the mean repair time, defaulting to
	// MTBF/10. Crash picks what happens to the jobs lost in a crash.
	MTBF  time.Duration
	MTTR  time.Duration
	Crash CrashPolicy

	// DropRate is the per-node, per-control-period probability that the
	// node's load-information exchange is lost, leaving its board vector
	// stale until a later exchange succeeds.
	DropRate float64

	// AbortRate is the per-attempt probability that a migration transfer
	// dies partway through its netlink transfer. An aborted attempt is
	// retried from scratch after an exponential backoff, up to MaxRetries
	// attempts; the backoff doubles per attempt starting at RetryBackoff
	// and is charged to the frozen job as queuing delay in simulated time.
	AbortRate    float64
	MaxRetries   int
	RetryBackoff time.Duration

	// DegradeAfter bounds how long a blocked submission may wait once
	// faults are active: past it, the job is force-admitted to the least
	// loaded live workstation and degrades to local paging rather than
	// wedging the cluster behind capacity that crashed away. Zero takes
	// DefaultDegradeAfter; negative disables degradation.
	DegradeAfter time.Duration

	// Domains groups workstations into correlated failure domains (racks
	// or zones) by node ID modulo Domains; zero disables both correlated
	// dimensions. DomainMTBF/DomainMTTR time domain-wide crash waves:
	// every member fails together and repairs together. PartitionMTBF/
	// PartitionMTTR time network partitions: the domain's load-information
	// exchanges are silenced and its in-flight transfers abort, but the
	// members keep computing their resident jobs.
	Domains       int
	DomainMTBF    time.Duration
	DomainMTTR    time.Duration
	PartitionMTBF time.Duration
	PartitionMTTR time.Duration
}

// Defaults for unset plan fields.
const (
	DefaultSeed         = 1
	DefaultMaxRetries   = 3
	DefaultRetryBackoff = time.Second
	DefaultDegradeAfter = 30 * time.Second
)

// Validate fills defaults and rejects inconsistent plans.
func (p *Plan) Validate() error {
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	if p.MTBF < 0 {
		return fmt.Errorf("faults: negative MTBF %v", p.MTBF)
	}
	if p.MTTR < 0 {
		return fmt.Errorf("faults: negative MTTR %v", p.MTTR)
	}
	if p.MTBF > 0 && p.MTTR == 0 {
		p.MTTR = p.MTBF / 10
	}
	if p.Crash != Kill && p.Crash != Requeue {
		return fmt.Errorf("faults: unknown crash policy %d", int(p.Crash))
	}
	// The negated range tests also reject NaN, which compares false to
	// everything: a NaN abort rate would abort every migration attempt.
	if !(p.DropRate >= 0 && p.DropRate <= 1) {
		return fmt.Errorf("faults: drop rate %v outside [0, 1]", p.DropRate)
	}
	if !(p.AbortRate >= 0 && p.AbortRate <= 1) {
		return fmt.Errorf("faults: abort rate %v outside [0, 1]", p.AbortRate)
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = DefaultMaxRetries
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("faults: negative retry cap %d", p.MaxRetries)
	}
	if p.RetryBackoff == 0 {
		p.RetryBackoff = DefaultRetryBackoff
	}
	if p.RetryBackoff < 0 {
		return fmt.Errorf("faults: negative retry backoff %v", p.RetryBackoff)
	}
	if p.DegradeAfter == 0 {
		p.DegradeAfter = DefaultDegradeAfter
	}
	if p.Domains < 0 {
		return fmt.Errorf("faults: negative domain count %d", p.Domains)
	}
	if p.DomainMTBF < 0 || p.DomainMTTR < 0 {
		return fmt.Errorf("faults: negative domain MTBF %v / MTTR %v", p.DomainMTBF, p.DomainMTTR)
	}
	if p.PartitionMTBF < 0 || p.PartitionMTTR < 0 {
		return fmt.Errorf("faults: negative partition MTBF %v / MTTR %v", p.PartitionMTBF, p.PartitionMTTR)
	}
	if p.Domains == 0 && (p.DomainMTBF > 0 || p.PartitionMTBF > 0) {
		return errors.New("faults: domain fault timing set but Domains is zero")
	}
	if p.DomainMTBF > 0 && p.DomainMTTR == 0 {
		p.DomainMTTR = p.DomainMTBF / 10
	}
	if p.PartitionMTBF > 0 && p.PartitionMTTR == 0 {
		p.PartitionMTTR = p.PartitionMTBF / 10
	}
	return nil
}

// Active reports whether any fault dimension is enabled.
func (p Plan) Active() bool {
	return p.MTBF > 0 || p.DropRate > 0 || p.AbortRate > 0 ||
		(p.Domains > 0 && (p.DomainMTBF > 0 || p.PartitionMTBF > 0))
}

// maxBackoffDoublings caps the exponential growth of the retry backoff:
// past it the delay saturates instead of overflowing time.Duration into a
// negative (instantly-firing or engine-rejected) timer.
const maxBackoffDoublings = 32

// Backoff reports the retry delay before the given 1-based attempt:
// RetryBackoff doubled per prior retry, saturating once the doubled value
// would overflow time.Duration.
func (p Plan) Backoff(attempt int) time.Duration {
	d := p.RetryBackoff
	if d <= 0 {
		return 0
	}
	n := attempt - 1
	if n > maxBackoffDoublings {
		n = maxBackoffDoublings
	}
	for i := 0; i < n; i++ {
		if d > math.MaxInt64/2 {
			return math.MaxInt64
		}
		d *= 2
	}
	return d
}

// Hooks are the cluster-side effects of fault events. The injector decides
// *when* a workstation fails, recovers, or loses its network; the cluster
// decides what that does to jobs, reservations, and metrics. The partition
// hooks receive the domain index and its member node IDs in ascending
// order.
type Hooks struct {
	Crash          func(nodeID int)
	Recover        func(nodeID int)
	PartitionStart func(domain int, members []int)
	PartitionEnd   func(domain int, members []int)
}

// downOwner records which fault dimension took a workstation down, so
// overlapping per-node chains and domain waves never double-crash or
// prematurely recover a node.
type downOwner uint8

const (
	ownerNone downOwner = iota
	ownerChain
	ownerDomain
)

// Injector schedules a plan's faults on a simulation engine.
type Injector struct {
	engine *sim.Engine
	plan   Plan
	hooks  Hooks

	// Every stream's state is a value (see stream.go): a snapshot copies
	// it and a restore copies it back. The streams a *rand.Rand draws from
	// are sparseStreams, which build a register only past their 273rd
	// value; they are allocated one by one, so growing the slices that
	// list them never leaves a wrapper pointing at a stale copy.
	crashRNG []*rand.Rand // per-node crash/repair timing
	crashSrc []*sparseStream
	migRNG   *rand.Rand // migration-abort draws, in transfer-start order
	migSrc   *sparseStream

	domainRNG []*rand.Rand // per-domain crash-wave timing
	domainSrc []*sparseStream
	partRNG   []*rand.Rand // per-domain partition timing
	partSrc   []*sparseStream

	// dropSrc holds each node's exchange-drop stream in place; drawRun
	// reads it without a wrapper, so AddNode may move it.
	dropSrc []stream

	// runs holds each node's drop decisions drawn ahead of the periods
	// that consume them, each filed on the calendar under the period its
	// last answer falls in (see Drops in drops.go); period is the next
	// period Drops answers. dropped is the last period's drop set, one bit
	// per node, and droppedIDs its members, cleared by the next period.
	runs       []dropRun
	calendar   [calendarSlots]int32
	period     uint64
	dropped    []uint64
	droppedIDs []int32

	downBy      []downOwner // per-node crash ownership
	retired     []bool      // per-node retirement (removed from membership)
	partitioned []bool      // per-domain partition state
	partitions  int         // domains currently partitioned

	started bool

	tr *obs.Tracer // nil when tracing is off
}

// SetTracer installs the structured event sink; the injector then emits
// crash/repair events just before invoking the cluster hooks, so the
// fault precedes its consequences in the trace.
func (in *Injector) SetTracer(tr *obs.Tracer) { in.tr = tr }

// streamSeed derives an independent stream's seed from the plan seed, a
// dimension salt, and a node index (SplitMix64-style mixing).
func streamSeed(seed int64, salt, id int) int64 {
	x := uint64(seed) + uint64(salt+1)*0x9E3779B97F4A7C15 + uint64(id+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// newRand returns the sparse stream of (seed, salt, id) and a *rand.Rand
// over it, whose draws are bit-identical to wrapping rand.NewSource of the
// same seed.
func newRand(seed int64, salt, id int) (*rand.Rand, *sparseStream) {
	src := new(sparseStream)
	src.Seed(streamSeed(seed, salt, id))
	return rand.New(src), src
}

// NewInjector builds an injector for nodes workstations. Call Start to arm
// the crash schedule. The plan must be validated.
func NewInjector(engine *sim.Engine, plan Plan, nodes int, hooks Hooks) (*Injector, error) {
	if engine == nil {
		return nil, errors.New("faults: nil engine")
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("faults: node count %d must be positive", nodes)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		engine:   engine,
		plan:     plan,
		hooks:    hooks,
		crashRNG: make([]*rand.Rand, nodes),
		crashSrc: make([]*sparseStream, nodes),
		dropSrc:  make([]stream, nodes),
		runs:     make([]dropRun, nodes),
		downBy:   make([]downOwner, nodes),
		retired:  make([]bool, nodes),

		dropped:    make([]uint64, (nodes+63)/64),
		droppedIDs: make([]int32, 0, nodes),
	}
	for s := range in.calendar {
		in.calendar[s] = -1
	}
	in.migRNG, in.migSrc = newRand(plan.Seed, 2, 0)
	for i := 0; i < nodes; i++ {
		in.crashRNG[i], in.crashSrc[i] = newRand(plan.Seed, 0, i)
		in.dropSrc[i].Seed(streamSeed(plan.Seed, 1, i))
		in.runs[i] = dropRun{prev: -1, next: -1}
		if plan.DropRate > 0 {
			in.startRun(i)
		}
	}
	if plan.Domains > 0 {
		in.domainRNG = make([]*rand.Rand, plan.Domains)
		in.partRNG = make([]*rand.Rand, plan.Domains)
		in.domainSrc = make([]*sparseStream, plan.Domains)
		in.partSrc = make([]*sparseStream, plan.Domains)
		in.partitioned = make([]bool, plan.Domains)
		for d := 0; d < plan.Domains; d++ {
			in.domainRNG[d], in.domainSrc[d] = newRand(plan.Seed, 3, d)
			in.partRNG[d], in.partSrc[d] = newRand(plan.Seed, 4, d)
		}
	}
	return in, nil
}

// AddNode extends the injector to a workstation joining at runtime: it
// gets its own crash and drop streams (derived from its ID, so the
// schedule is independent of join order) and, when the injector is already
// armed, its private crash chain starts immediately. The new node falls
// into domain id % Domains and is swept up by future waves and partitions
// automatically.
func (in *Injector) AddNode(id int) error {
	if id != len(in.crashRNG) {
		return fmt.Errorf("faults: node %d joined out of order (have %d)", id, len(in.crashRNG))
	}
	crashRNG, crashSrc := newRand(in.plan.Seed, 0, id)
	in.crashRNG = append(in.crashRNG, crashRNG)
	in.crashSrc = append(in.crashSrc, crashSrc)
	in.dropSrc = append(in.dropSrc, stream{})
	in.dropSrc[id].Seed(streamSeed(in.plan.Seed, 1, id))
	in.runs = append(in.runs, dropRun{prev: -1, next: -1})
	in.downBy = append(in.downBy, ownerNone)
	in.retired = append(in.retired, false)
	if id>>6 >= len(in.dropped) {
		in.dropped = append(in.dropped, 0)
	}
	// A member of a partitioned domain draws its first run when the
	// partition heals.
	if in.plan.DropRate > 0 && !in.Partitioned(id) {
		in.startRun(id)
	}
	if in.started && in.plan.MTBF > 0 {
		in.armCrash(id)
	}
	return nil
}

// Partitioned reports whether nodeID's failure domain is currently
// network-partitioned from the rest of the cluster.
func (in *Injector) Partitioned(nodeID int) bool {
	if in.partitions == 0 || nodeID < 0 {
		return false
	}
	return in.partitioned[nodeID%in.plan.Domains]
}

// RetireNode marks a workstation as removed from membership: its crash
// chain stops at the next firing (the pending timer is left to expire — a
// retired node absorbs it silently), domain waves and partitions skip it
// from now on, and its drop run leaves the calendar.
func (in *Injector) RetireNode(id int) {
	if id >= 0 && id < len(in.retired) {
		in.retired[id] = true
		in.freeze(id)
	}
}

// members collects domain d's live (non-retired) node IDs in ascending
// order.
func (in *Injector) members(d int) []int {
	var ids []int
	for id := d; id < len(in.crashRNG); id += in.plan.Domains {
		if in.retired[id] {
			continue
		}
		ids = append(ids, id)
	}
	return ids
}

// Plan returns the injector's validated plan.
func (in *Injector) Plan() Plan { return in.plan }

// Start arms each workstation's crash/repair chain — the first failure is
// drawn from the node's private stream, each crash schedules its repair,
// and each repair schedules the next failure — plus, when domains are
// configured, each domain's crash-wave and partition chains.
func (in *Injector) Start() {
	in.started = true
	if in.plan.MTBF > 0 {
		for id := range in.crashRNG {
			in.armCrash(id)
		}
	}
	for d := 0; d < in.plan.Domains; d++ {
		if in.plan.DomainMTBF > 0 {
			in.armDomainCrash(d)
		}
		if in.plan.PartitionMTBF > 0 {
			in.armPartition(d)
		}
	}
}

// expDelay draws an exponential delay with the given mean. A draw past
// the largest Duration (about 292 years) saturates there: converted as
// is, it would wrap negative, and the engine would fire the fault at once.
func expDelay(r *rand.Rand, mean time.Duration) time.Duration {
	d := r.ExpFloat64() * float64(mean)
	if d >= math.MaxInt64 { // 2^63 as a float64
		return math.MaxInt64
	}
	return time.Duration(d)
}

func (in *Injector) armCrash(id int) {
	d := expDelay(in.crashRNG[id], in.plan.MTBF)
	in.engine.After(d, func() {
		// A retired workstation's chain dies here: the pending timer
		// fires into a no-op and nothing re-arms.
		if in.retired[id] {
			return
		}
		// A domain wave may already hold this node down; the chain's draw
		// is consumed regardless so its timing stays a pure function of
		// the node's stream, but only the dimension that actually crashed
		// the node emits the event and fires the hook.
		if in.downBy[id] == ownerNone {
			in.downBy[id] = ownerChain
			if in.tr != nil {
				in.tr.Emit(obs.Event{At: in.engine.Now(), Kind: obs.KindNodeCrash,
					Node: int32(id), Job: -1, Aux: -1})
			}
			if in.hooks.Crash != nil {
				in.hooks.Crash(id)
			}
		}
		in.armRecover(id)
	})
}

func (in *Injector) armRecover(id int) {
	d := expDelay(in.crashRNG[id], in.plan.MTTR)
	in.engine.After(d, func() {
		if in.retired[id] {
			return
		}
		if in.downBy[id] == ownerChain {
			in.downBy[id] = ownerNone
			if in.tr != nil {
				in.tr.Emit(obs.Event{At: in.engine.Now(), Kind: obs.KindNodeRepair,
					Node: int32(id), Job: -1, Aux: -1})
			}
			if in.hooks.Recover != nil {
				in.hooks.Recover(id)
			}
		}
		in.armCrash(id)
	})
}

// armDomainCrash schedules domain d's next crash wave: every member not
// already down crashes together, the wave repairs them together, and the
// repair arms the next wave.
func (in *Injector) armDomainCrash(d int) {
	wait := expDelay(in.domainRNG[d], in.plan.DomainMTBF)
	in.engine.After(wait, func() {
		members := in.members(d)
		if in.tr != nil {
			in.tr.Emit(obs.Event{At: in.engine.Now(), Kind: obs.KindDomainOutage,
				Node: -1, Job: -1, Aux: int32(d), Val: float64(len(members))})
		}
		for _, id := range members {
			if in.downBy[id] != ownerNone {
				continue
			}
			in.downBy[id] = ownerDomain
			if in.tr != nil {
				in.tr.Emit(obs.Event{At: in.engine.Now(), Kind: obs.KindNodeCrash,
					Node: int32(id), Job: -1, Aux: int32(d)})
			}
			if in.hooks.Crash != nil {
				in.hooks.Crash(id)
			}
		}
		in.armDomainRepair(d)
	})
}

// armDomainRepair ends a crash wave, recovering exactly the members the
// wave took down (nodes crashed by their own chains repair on their own
// schedule).
func (in *Injector) armDomainRepair(d int) {
	wait := expDelay(in.domainRNG[d], in.plan.DomainMTTR)
	in.engine.After(wait, func() {
		members := in.members(d)
		if in.tr != nil {
			in.tr.Emit(obs.Event{At: in.engine.Now(), Kind: obs.KindDomainRestore,
				Node: -1, Job: -1, Aux: int32(d), Val: float64(len(members))})
		}
		for _, id := range members {
			if in.downBy[id] != ownerDomain {
				continue
			}
			in.downBy[id] = ownerNone
			if in.tr != nil {
				in.tr.Emit(obs.Event{At: in.engine.Now(), Kind: obs.KindNodeRepair,
					Node: int32(id), Job: -1, Aux: int32(d)})
			}
			if in.hooks.Recover != nil {
				in.hooks.Recover(id)
			}
		}
		in.armDomainCrash(d)
	})
}

// armPartition schedules domain d's next network partition: the domain
// goes dark (refreshes silenced, transfers aborted via the hook) without
// crashing anyone, heals after the partition MTTR, and re-arms.
func (in *Injector) armPartition(d int) {
	wait := expDelay(in.partRNG[d], in.plan.PartitionMTBF)
	in.engine.After(wait, func() {
		members := in.members(d)
		in.setPartitioned(d, true)
		if in.tr != nil {
			in.tr.Emit(obs.Event{At: in.engine.Now(), Kind: obs.KindDomainOutage,
				Flags: obs.FlagPartition, Node: -1, Job: -1,
				Aux: int32(d), Val: float64(len(members))})
		}
		if in.hooks.PartitionStart != nil {
			in.hooks.PartitionStart(d, members)
		}
		heal := expDelay(in.partRNG[d], in.plan.PartitionMTTR)
		in.engine.After(heal, func() {
			in.setPartitioned(d, false)
			if in.tr != nil {
				in.tr.Emit(obs.Event{At: in.engine.Now(), Kind: obs.KindDomainRestore,
					Flags: obs.FlagPartition, Node: -1, Job: -1,
					Aux: int32(d), Val: float64(len(in.members(d)))})
			}
			if in.hooks.PartitionEnd != nil {
				in.hooks.PartitionEnd(d, in.members(d))
			}
			in.armPartition(d)
		})
	})
}

// setPartitioned flips domain d's partition state, keeping the count of
// partitioned domains that lets Partitioned skip the domain lookup while
// none is. A partition freezes each member's drop run where it stands; the
// heal puts it back on the calendar with the periods it had left.
func (in *Injector) setPartitioned(d int, on bool) {
	if !in.markPartitioned(d, on) {
		return
	}
	for id := d; id < len(in.runs); id += in.plan.Domains {
		if on {
			in.freeze(id)
		} else {
			in.thaw(id)
		}
	}
}

// markPartitioned sets domain d's partition flag and count, reporting
// whether the state changed.
func (in *Injector) markPartitioned(d int, on bool) bool {
	if in.partitioned[d] == on {
		return false
	}
	in.partitioned[d] = on
	if on {
		in.partitions++
	} else {
		in.partitions--
	}
	return true
}

// AbortMigration decides one migration attempt's fate: whether it dies on
// the wire and, if so, how far through the transfer (a fraction in
// [0.05, 0.95]). Draws come from a single stream in transfer-start order,
// which the engine makes deterministic.
func (in *Injector) AbortMigration() (bool, float64) {
	if in.plan.AbortRate <= 0 {
		return false, 0
	}
	if in.migRNG.Float64() >= in.plan.AbortRate {
		return false, 0
	}
	return true, 0.05 + 0.9*in.migRNG.Float64()
}
