// Package cluster assembles workstations, the interconnect, the load
// information board, and a scheduling policy into a runnable simulated
// cluster, and drives trace executions on the discrete-event engine.
//
// The cluster owns the mechanics that every policy shares: job arrival and
// admission, the pending queue of blocked submissions, remote submission
// latency, migration transfers (including destinations that fill up while
// a job is in flight), periodic load-information refresh, and metric
// sampling. Policies decide *where* work goes; the cluster makes it happen.
package cluster

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"vrcluster/internal/audit"
	"vrcluster/internal/faults"
	"vrcluster/internal/job"
	"vrcluster/internal/loadinfo"
	"vrcluster/internal/metrics"
	"vrcluster/internal/netlink"
	"vrcluster/internal/network"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
	"vrcluster/internal/record"
	"vrcluster/internal/sim"
	"vrcluster/internal/trace"
)

// Scheduler is the inter-workstation policy plugged into a cluster.
type Scheduler interface {
	// Name identifies the policy in results (e.g. "G-Loadsharing").
	Name() string

	// Place chooses a workstation for a newly submitted (or retried)
	// job given the current load board. It returns the target node ID
	// and whether the placement is remote (incurring the network
	// submission cost r). ok=false blocks the submission; the cluster
	// queues the job and retries every control period.
	Place(c *Cluster, j *job.Job, home int) (target int, remote bool, ok bool)

	// OnControl runs once per control period, immediately after the
	// load board refresh and before blocked submissions are retried.
	// Pressure-driven migration and virtual reconfiguration live here.
	OnControl(c *Cluster, now time.Duration)

	// OnJobDone notifies the policy that a job completed on a node.
	OnJobDone(c *Cluster, n *node.Node, j *job.Job)
}

// Config describes a cluster and its simulation parameters.
type Config struct {
	Nodes   []node.Config
	Network network.Model

	// Quantum is the CPU scheduling quantum; ControlPeriod is the load
	// information exchange (and policy decision) period; SampleInterval
	// is the metric sampling period.
	Quantum        time.Duration
	ControlPeriod  time.Duration
	SampleInterval time.Duration

	// MaxVirtualTime aborts runs that fail to complete (safety net).
	MaxVirtualTime time.Duration

	// SharedNetwork makes migration transfers contend for the Ethernet
	// segment (fair sharing) instead of each enjoying a dedicated link.
	SharedNetwork bool

	// RecordInterval, when positive, turns on the kernel-style tracing
	// facility: every job's activities are recorded at this granularity
	// (the paper records every 10 ms) and exposed via Recording after
	// the run.
	RecordInterval time.Duration

	// Faults configures deterministic fault injection (workstation
	// crashes, dropped load exchanges, aborted migration transfers). The
	// zero plan disables injection entirely.
	Faults faults.Plan

	// Obs, when non-nil, receives a structured event for every scheduler
	// decision made during Run (see internal/obs for the taxonomy). Nil
	// disables tracing; instrumented paths then cost only a nil check.
	Obs *obs.Tracer

	// Membership is a script of runtime joins and drains executed at
	// their virtual times during Run.
	Membership []MembershipEvent

	// Autoscale enables the utilization-threshold autoscaler (zero
	// MaxNodes disables it).
	Autoscale AutoscaleConfig

	// Audit enables the runtime invariant auditor: the cluster state is
	// checked at every control period and once more at the end of the
	// run, and the first violation fails the run with its detail.
	Audit bool

	// Seed is unused: the simulation draws nothing outside the trace and
	// the fault plan, which carry their own seeds. The field stays until
	// the benchmark harness, which still sets it, stops doing so.
	Seed int64
}

// Defaults for unset config fields.
const (
	DefaultQuantum        = 10 * time.Millisecond
	DefaultControlPeriod  = time.Second
	DefaultMaxVirtualTime = 1000 * time.Hour
)

// Validate fills defaults and rejects inconsistent configurations.
func (c *Config) Validate() error {
	if len(c.Nodes) == 0 {
		return errors.New("cluster: no nodes configured")
	}
	if c.Network == (network.Model{}) {
		c.Network = network.Default
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	if c.Quantum == 0 {
		c.Quantum = DefaultQuantum
	}
	if c.Quantum <= 0 {
		return fmt.Errorf("cluster: quantum %v must be positive", c.Quantum)
	}
	if c.ControlPeriod == 0 {
		c.ControlPeriod = DefaultControlPeriod
	}
	if c.ControlPeriod < c.Quantum {
		return fmt.Errorf("cluster: control period %v below quantum %v", c.ControlPeriod, c.Quantum)
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = metrics.DefaultSampleInterval
	}
	if c.SampleInterval <= 0 {
		return fmt.Errorf("cluster: sample interval %v must be positive", c.SampleInterval)
	}
	if c.MaxVirtualTime == 0 {
		c.MaxVirtualTime = DefaultMaxVirtualTime
	}
	if c.MaxVirtualTime <= 0 {
		return fmt.Errorf("cluster: max virtual time %v must be positive", c.MaxVirtualTime)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Autoscale.validate(len(c.Nodes)); err != nil {
		return err
	}
	// Every failure domain holds streams of its own, so a domain count past
	// the most workstations the run can hold at once is refused before the
	// injector allocates them.
	most := max(len(c.Nodes), c.Autoscale.MaxNodes)
	for i, ev := range c.Membership {
		if ev.At < 0 {
			return fmt.Errorf("cluster: membership event %d at negative time %v", i, ev.At)
		}
		if ev.Kind != MemberJoin && ev.Kind != MemberDrain {
			return fmt.Errorf("cluster: membership event %d has unknown kind %d", i, ev.Kind)
		}
		if ev.Kind == MemberJoin {
			most++
		}
	}
	if c.Faults.Domains > most {
		return fmt.Errorf("cluster: %d failure domains for at most %d workstations", c.Faults.Domains, most)
	}
	return nil
}

// pendingSubmission is a job whose submission is blocked cluster-wide.
type pendingSubmission struct {
	j    *job.Job
	home int
}

// strandedMigration is a migrating job whose destination filled up while
// it was in flight. With capacity holds (ExpectMigration) landings placed
// by the cluster cannot fail, this path catches destination crashes,
// policies that attach jobs directly, and any future placement race,
// charging the frozen wait as queuing so the time decomposition survives.
type strandedMigration struct {
	j       *job.Job
	dstID   int
	cost    time.Duration // accumulated transfer cost, charged on landing
	special bool
	since   time.Duration // last moment accounted for (queue charge basis)

	// strandedAt is when the job entered the pool (degradation bound);
	// retransfer means the image never reached dstID (the transfer was
	// abandoned mid-wire), so landing requires a fresh transfer.
	strandedAt time.Duration
	retransfer bool
}

// wireTransfer tracks one migration in flight: the pending engine timer
// (or shared-link transfer) carrying the current leg, and the state needed
// to abort it mid-wire when the destination's domain partitions. An entry
// lives from transfer start through retries and backoffs until the job
// lands or joins the stranded pool, so the registry is also the auditor's
// "frozen in migration" set.
type wireTransfer struct {
	j        *job.Job
	dstID    int
	demandMB float64
	special  bool
	attempt  int
	cost     time.Duration // transfer cost accumulated by completed legs
	legStart time.Duration // when the current wire leg started
	handle   sim.Handle    // cancellable timer for the current leg
	linkID   int           // shared-link transfer ID, -1 while off the link
	waiting  bool          // in retry backoff; nothing on the wire to abort
}

// Cluster is a runnable simulated cluster.
type Cluster struct {
	cfg    Config
	engine *sim.Engine
	nodes  []*node.Node
	board  *loadinfo.Board
	net    network.Model
	link   *netlink.Link // non-nil when SharedNetwork is enabled
	sched  Scheduler
	col    *metrics.Collector

	pending     []pendingSubmission
	pendingNext []pendingSubmission // retryPending's spare buffer, always empty
	stranded    []strandedMigration
	outstanding int
	timedOut    bool
	recorder    *record.Recorder
	ranJobs     []*job.Job
	runErr      error

	// holdOpen keeps the tickers alive when the outstanding-job count hits
	// zero: during a fork driver's shared warmup prefix only the warmup
	// jobs are scheduled, and an early quiescence must not stop the clocks
	// a fresh run (whose tail jobs are still outstanding) would keep
	// running. finish clears it.
	holdOpen bool

	// Run-lifecycle state promoted to fields so Start/finish can be split
	// around a snapshot point and so a snapshot can capture the tickers.
	controlTicker *sim.Ticker
	sampleTicker  *sim.Ticker
	recordTicker  *sim.Ticker
	cleanup       func()

	// Elastic membership and chaos state: in-flight transfers by job ID,
	// drain start times, removal times, the conservation counters the
	// auditor reconciles, and the autoscaler's last decision time.
	wire           map[int]*wireTransfer
	drainAt        map[int]time.Duration
	removedAt      map[int]time.Duration
	arrived        int
	remoteInFlight int
	scaledAt       time.Duration
	auditor        *audit.Auditor
	auditSnap      audit.Snapshot // refilled for every check

	// active is a bitmask of workstations with resident jobs, maintained
	// through the nodes' residency watchers; advance visits only set
	// bits, and an all-zero mask lets the quantum clock fast-forward
	// across idle stretches. activeCount tracks the set bits so the
	// quiescence check is O(1) rather than a word scan.
	active        []uint64
	activeCount   int
	quantumHandle sim.Handle

	// denseClock, when set, replaces Run's quantum clock. Only the test
	// build sets it: the dense-tick reference oracle (export_test.go).
	denseClock func()

	// pressured is the exact set of memory-pressured workstations,
	// maintained through the nodes' pressure watchers. Control-loop scans
	// that only care about pressured nodes (victim packing, blocking
	// detection) iterate this mask instead of every node.
	pressured []uint64

	injector *faults.Injector // non-nil while a fault plan is active
	homes    map[int]int      // job ID -> home workstation (crash requeues)
	obs      *obs.Tracer      // nil unless a sink is installed

	// sampleBuf is the per-node sample batch readSamples refills every
	// sample tick; the metrics collector and the tracer both read it.
	sampleBuf []obs.Event
}

// New assembles a cluster around a scheduling policy.
func New(cfg Config, sched Scheduler) (*Cluster, error) {
	if sched == nil {
		return nil, errors.New("cluster: nil scheduler")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := make([]*node.Node, len(cfg.Nodes))
	for i, nc := range cfg.Nodes {
		nc.ID = i
		n, err := node.New(nc)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	board, err := loadinfo.NewBoard(len(nodes), cfg.ControlPeriod)
	if err != nil {
		return nil, err
	}
	col, err := metrics.NewCollector(cfg.SampleInterval)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		engine:    sim.NewEngine(),
		nodes:     nodes,
		board:     board,
		net:       cfg.Network,
		sched:     sched,
		col:       col,
		obs:       cfg.Obs,
		wire:      make(map[int]*wireTransfer),
		drainAt:   make(map[int]time.Duration),
		removedAt: make(map[int]time.Duration),
		scaledAt:  -1,
	}
	if cfg.Audit {
		c.auditor = audit.New()
		// Any invariant violation triggers the anomaly flight recorder
		// (when one is attached), so the trace ring is dumped at the
		// exact virtual instant the invariant broke.
		c.auditor.SetOnViolation(func(v audit.Violation) {
			if fr := c.obs.Flight(); fr != nil {
				fr.Trigger("audit:" + v.Invariant)
			}
		})
	}
	if cfg.SharedNetwork {
		link, err := netlink.New(c.engine, cfg.Network.BandwidthMbps)
		if err != nil {
			return nil, err
		}
		link.SetTracer(cfg.Obs)
		c.link = link
	}
	c.active = make([]uint64, (len(nodes)+63)/64)
	c.pressured = make([]uint64, (len(nodes)+63)/64)
	for i, n := range nodes {
		id := i
		n.SetResidencyWatcher(func(resident int) { c.setActive(id, resident > 0) })
		n.SetPressureWatcher(func(pressured bool) { c.setPressured(id, pressured) })
		n.SetTracer(cfg.Obs)
	}
	return c, nil
}

// Tracer returns the installed event sink, or nil when tracing is off.
// All obs.Tracer methods are nil-receiver safe, so callers emit through
// the returned pointer without checking it.
func (c *Cluster) Tracer() *obs.Tracer { return c.obs }

// emit appends one event at the current virtual time. The nil check keeps
// the disabled path free of event construction on hot call sites.
func (c *Cluster) emit(k obs.Kind, nodeID, jobID, aux int, val float64, flags uint8) {
	if c.obs == nil {
		return
	}
	c.obs.Emit(obs.Event{
		At:    c.engine.Now(),
		Kind:  k,
		Flags: flags,
		Node:  int32(nodeID),
		Job:   int32(jobID),
		Aux:   int32(aux),
		Val:   val,
	})
}

// readSamples reads every live workstation once into sampleBuf, one
// KindNodeSample event each (idle memory, resident jobs, reserved, down and
// draining flags) in node order, and returns the batch. Each event is
// written field by field in place: a composite literal would be built in a
// temporary and then copied over the slot.
func (c *Cluster) readSamples() []obs.Event {
	if cap(c.sampleBuf) < len(c.nodes) {
		c.sampleBuf = make([]obs.Event, len(c.nodes))
	}
	buf := c.sampleBuf[:cap(c.sampleBuf)]
	now := c.engine.Now()
	live := 0
	for _, n := range c.nodes {
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
		e := &buf[live]
		e.At = now
		e.Kind = obs.KindNodeSample
		e.Flags = fl
		e.Node = int32(n.ID())
		e.Job = -1
		e.Aux = int32(n.NumJobs())
		e.Val = n.IdleMB()
		live++
	}
	c.sampleBuf = buf[:live]
	return c.sampleBuf
}

// sampleObs hands the sample batch to the tracer as the periodic per-node
// time series, and refreshes the live telemetry gauges when a metrics
// series is attached.
func (c *Cluster) sampleObs(samples []obs.Event) {
	if c.obs == nil {
		return
	}
	c.obs.EmitSamples(samples)
	if m := c.obs.Metrics(); m != nil {
		pressured := 0
		for _, w := range c.pressured {
			pressured += bits.OnesCount64(w)
		}
		m.SetClusterGauges(c.engine.Now(), len(c.pending), c.outstanding, c.activeCount, pressured, len(samples))
	}
}

// setActive flips node id's bit in the active-workstation mask, keeping
// the set-bit count current.
func (c *Cluster) setActive(id int, on bool) {
	w, bit := &c.active[id>>6], uint64(1)<<uint(id&63)
	switch {
	case on && *w&bit == 0:
		*w |= bit
		c.activeCount++
	case !on && *w&bit != 0:
		*w &^= bit
		c.activeCount--
	}
}

// anyActive reports whether any workstation holds a resident job.
func (c *Cluster) anyActive() bool { return c.activeCount > 0 }

// setPressured flips node id's bit in the pressured-workstation mask.
func (c *Cluster) setPressured(id int, on bool) {
	if on {
		c.pressured[id>>6] |= 1 << uint(id&63)
	} else {
		c.pressured[id>>6] &^= 1 << uint(id&63)
	}
}

// ForEachPressured visits every memory-pressured workstation in ascending
// node-ID order; fn returning false stops the walk. The mask is exact —
// nodes report every pressure transition synchronously — so callers
// iterate the pressured set without scanning the whole cluster.
func (c *Cluster) ForEachPressured(fn func(n *node.Node) bool) {
	for wi := range c.pressured {
		w := c.pressured[wi]
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if !fn(c.nodes[id]) {
				return
			}
		}
	}
}

// NextPressured reports the lowest-numbered memory-pressured workstation
// at or above from. It reads the pressured mask as it stands at the call,
// so a walk that asks for the next member after each visit also reaches
// the workstations that turned pressured meanwhile, in ascending ID order.
func (c *Cluster) NextPressured(from int) (int, bool) {
	from = max(from, 0)
	for wi := from >> 6; wi < len(c.pressured); wi++ {
		w := c.pressured[wi]
		if wi == from>>6 {
			w &= ^uint64(0) << uint(from&63)
		}
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w), true
		}
	}
	return -1, false
}

// Engine exposes the discrete-event engine (for policies that schedule
// their own callbacks and for tests).
func (c *Cluster) Engine() *sim.Engine { return c.engine }

// Nodes returns the live node list. Callers must not mutate the slice.
func (c *Cluster) Nodes() []*node.Node { return c.nodes }

// Node returns one workstation by ID.
func (c *Cluster) Node(id int) (*node.Node, error) {
	if id < 0 || id >= len(c.nodes) {
		return nil, fmt.Errorf("cluster: node %d out of range", id)
	}
	return c.nodes[id], nil
}

// Board exposes the load information board.
func (c *Cluster) Board() *loadinfo.Board { return c.board }

// Collector exposes the metrics collector (policies bump its counters).
func (c *Cluster) Collector() *metrics.Collector { return c.col }

// Auditor returns the run's invariant auditor, or nil unless Config.Audit
// enabled it.
func (c *Cluster) Auditor() *audit.Auditor { return c.auditor }

// Injector returns the run's fault injector, or nil until Start arms an
// active Config.Faults plan.
func (c *Cluster) Injector() *faults.Injector { return c.injector }

// Network reports the interconnect model.
func (c *Cluster) Network() network.Model { return c.net }

// PendingCount reports blocked submissions waiting for a destination.
func (c *Cluster) PendingCount() int { return len(c.pending) }

// Outstanding reports jobs not yet completed.
func (c *Cluster) Outstanding() int { return c.outstanding }

// RanJobs returns the jobs of the last Run in submission order (all
// completed when Run returned without error), for per-job analysis.
func (c *Cluster) RanJobs() []*job.Job {
	out := make([]*job.Job, len(c.ranJobs))
	copy(out, c.ranJobs)
	return out
}

// Recording returns the activity log captured during Run when
// RecordInterval was set, or nil.
func (c *Cluster) Recording() *record.Log {
	if c.recorder == nil {
		return nil
	}
	return c.recorder.Log()
}

// Run executes a trace to completion and summarizes it. The trace must be
// sized for this cluster.
func (c *Cluster) Run(tr *trace.Trace) (*metrics.Result, error) {
	if err := c.Start(tr); err != nil {
		return nil, err
	}
	return c.finish(tr.Name)
}

// RunDiverged executes a trace with a what-if divergence applied at the
// given instant: the run proceeds exactly as Run would up to at, then apply
// mutates the cluster (swap the scheduler, change the control period, ...)
// and the run continues under the changed regime. The divergence fires
// after every same-instant event of the normal classes, which is precisely
// where a fork driver's RunToDivergence/Snapshot/apply sequence lands — so
// a fresh RunDiverged and a forked continuation with the same apply are
// byte-identical.
func (c *Cluster) RunDiverged(tr *trace.Trace, name string, at time.Duration, apply func(c *Cluster) error) (*metrics.Result, error) {
	if err := c.Start(tr); err != nil {
		return nil, err
	}
	if _, err := c.engine.ScheduleClass(at, sim.ClassDiverge, func() {
		if err := apply(c); err != nil {
			c.fail(err)
		}
	}); err != nil {
		return nil, err
	}
	return c.finish(name)
}

// fail aborts the run at the first error, preserving it for finish.
func (c *Cluster) fail(err error) {
	if c.runErr == nil {
		c.runErr = err
		c.engine.Stop()
	}
}

// Start arms a trace execution on the engine without running it: arrivals,
// fault injection, the membership script, the quantum clock, the control
// and sampling tickers, the optional recorder, and the timeout. Run is
// Start plus finish; the split exists so fork-based drivers can execute a
// shared warmup prefix once (RunToDivergence), Snapshot, and then finish
// each divergent continuation from the restored state.
func (c *Cluster) Start(tr *trace.Trace) error {
	if tr.Nodes != len(c.nodes) {
		return fmt.Errorf("cluster: trace for %d nodes, cluster has %d", tr.Nodes, len(c.nodes))
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	jobs, err := tr.Jobs()
	if err != nil {
		return err
	}
	c.outstanding = len(jobs)
	c.ranJobs = jobs
	c.runErr = nil
	c.timedOut = false
	c.homes = make(map[int]int, len(jobs))
	for i, j := range jobs {
		c.homes[j.ID] = tr.Items[i].Home
	}

	// Arrivals, in the arrival event class so they win every same-instant
	// tie against runtime events — scheduling them all up front already
	// gave them the lowest sequence numbers; the class makes that ordering
	// hold for arrivals injected later by a fork driver too. The arrival
	// counter feeds the auditor's job-conservation equation; requeues
	// after crashes re-enter submit without it.
	for i, j := range jobs {
		j, home := j, tr.Items[i].Home
		if _, err := c.engine.ScheduleClass(j.SubmitAt, sim.ClassArrival, func() {
			c.arrived++
			c.submit(j, home)
		}); err != nil {
			return err
		}
	}

	// Initial board state so early placements see real capacity.
	if err := c.board.Refresh(0, c.nodes); err != nil {
		return err
	}

	if c.cfg.Faults.Active() {
		inj, err := faults.NewInjector(c.engine, c.cfg.Faults, len(c.nodes), faults.Hooks{
			Crash: func(id int) {
				if err := c.crashNode(id); err != nil {
					c.fail(err)
				}
			},
			Recover: func(id int) {
				if err := c.recoverNode(id); err != nil {
					c.fail(err)
				}
			},
			PartitionStart: func(domain int, members []int) {
				c.col.DomainPartitions++
				c.abortWireTo(members)
			},
			PartitionEnd: func(domain int, members []int) {},
		})
		if err != nil {
			return err
		}
		inj.SetTracer(c.obs)
		c.injector = inj
		inj.Start()
	}

	// Scheduled membership script: runtime joins and drains.
	for _, ev := range c.cfg.Membership {
		ev := ev
		if _, err := c.engine.Schedule(ev.At, func() {
			if err := c.applyMembership(ev); err != nil {
				c.fail(err)
			}
		}); err != nil {
			return err
		}
	}
	// The quantum clock is self-arming rather than a fixed sim.Ticker:
	// while any workstation holds a job it advances quantum by quantum,
	// and while the whole cluster is quiescent it fast-forwards to the
	// quantum boundary covering the next pending event — submission,
	// control period, fault, landing, or timeout — making the hot loop
	// activity-proportional. Active stretches with no engine event inside
	// the next quantum are batched: the clock advances directly
	// (AdvanceTo) and the tick body runs inline without a heap operation,
	// which is sound because tick bodies schedule no engine events, so no
	// ordering exists for the elided re-arm event to perturb. When an
	// event is pending within the quantum the clock falls back to a real
	// re-armed timer, exactly as a Ticker would, preserving the relative
	// order of that event and the tick. Elided idle ticks are provable
	// no-ops: with no resident jobs node.Fold does nothing, and the
	// boundary arithmetic keeps every executed tick on the same instants
	// as the dense schedule (see the dense-vs-elided equivalence tests).
	for i, n := range c.nodes {
		c.setActive(i, n.NumJobs() > 0)
	}
	var quantumFn func()
	quantumFn = func() {
		q := c.cfg.Quantum
		for {
			if !c.anyActive() {
				now := c.engine.Now()
				target := now + q
				if next, ok := c.engine.NextEventAt(); ok && next > now {
					if r := next % q; r != 0 {
						next += q - r
					}
					target = next
				}
				c.quantumHandle, _ = c.engine.Schedule(target, quantumFn) // target >= now; cannot fail
				return
			}
			now := c.engine.Now()
			next, ok := c.engine.NextEventAt()
			// During a RunToDivergence drive the clock must not advance
			// past the divergence instant: the fork driver injects
			// arrivals just after it. Treating the first instant past
			// the ceiling as eventful bounds both the inline advance and
			// the batched stretch without touching their arithmetic.
			if ceil, cok := c.engine.AdvanceCeiling(); cok && (!ok || ceil+1 < next) {
				next, ok = ceil+1, true
			}
			if ok && next <= now+q {
				c.quantumHandle = c.engine.After(q, quantumFn)
				if err := c.quantumTick(); err != nil {
					c.fail(err)
				}
				return
			}
			// No engine event inside the next quantum: tick inline and
			// advance the clock instead of paying a heap push/pop for an
			// un-contended re-arm. First try to fold the stretch up to
			// the event in one pass per active workstation — legal while
			// no node has a completion inside the stretch, so no
			// scheduler callback or cross-node interaction can fire.
			// kLast quanta are due before next, the last of them in the
			// final quantum before it: folding that one too leaves the
			// clock where the dense path would re-arm its timer, and the
			// re-arm takes the same place in the event order, since a
			// completion-free fold schedules nothing.
			if ok {
				kLast := int64((next - now + q - 1) / q)
				if k := c.planBatch(kLast); k >= 2 {
					if err := c.advance(now, k); err != nil {
						c.fail(err)
						return
					}
					if k == kLast {
						if err := c.engine.AdvanceTo(now + time.Duration(k-1)*q); err != nil {
							c.fail(err)
							return
						}
						c.quantumHandle = c.engine.After(q, quantumFn)
						return
					}
					// The completion floor cut the stretch short of the
					// last quantum; carry on from where it ends.
					if err := c.engine.AdvanceTo(now + time.Duration(k)*q); err != nil {
						c.fail(err)
						return
					}
					continue
				}
			}
			if err := c.quantumTick(); err != nil {
				c.fail(err)
				return
			}
			if c.engine.Stopped() {
				return
			}
			if err := c.engine.AdvanceTo(now + q); err != nil {
				c.fail(err)
				return
			}
		}
	}
	if c.denseClock != nil {
		quantumFn = c.denseClock
	}
	c.quantumHandle = c.engine.After(c.cfg.Quantum, quantumFn)

	c.controlTicker, err = sim.NewTicker(c.engine, c.cfg.ControlPeriod, func() {
		if err := c.controlTick(); err != nil {
			c.fail(err)
		}
	})
	if err != nil {
		return err
	}

	c.sampleTicker, err = sim.NewTicker(c.engine, c.cfg.SampleInterval, func() {
		samples := c.readSamples()
		c.col.Observe(c.engine.Now(), samples, len(c.pending))
		c.sampleObs(samples)
	})
	if err != nil {
		return err
	}

	c.recordTicker = nil
	if c.cfg.RecordInterval > 0 {
		rec, err := record.NewRecorder(tr.Name, c.cfg.RecordInterval, len(c.nodes), jobs, c.homes)
		if err != nil {
			return err
		}
		c.recorder = rec
		c.recordTicker, err = sim.NewTicker(c.engine, c.cfg.RecordInterval, func() {
			rec.Observe(c.engine.Now())
		})
		if err != nil {
			return err
		}
	}

	if _, err := c.engine.Schedule(c.cfg.MaxVirtualTime, func() {
		c.timedOut = true
		c.engine.Stop()
	}); err != nil {
		return err
	}

	c.cleanup = func() {
		c.engine.Cancel(c.quantumHandle)
		c.controlTicker.Stop()
		c.sampleTicker.Stop()
		if c.recordTicker != nil {
			c.recordTicker.Stop()
		}
	}
	return nil
}

// RunToDivergence executes the armed trace up to the divergence instant —
// including every same-instant arrival- and normal-class event — so the
// cluster lands on exactly the state a fresh run has when a divergence
// event at that instant fires. Call after Start, before Snapshot.
func (c *Cluster) RunToDivergence(at time.Duration) error {
	c.engine.RunToDivergence(at)
	return c.runErr
}

// HoldOpen keeps the run's clocks alive across a zero-outstanding moment.
// A fork driver sets it for the shared warmup prefix, where only the
// warmup jobs are scheduled: if they all complete before the divergence
// instant, the tickers must keep running to it — a fresh run of the full
// composite trace, whose tail jobs are still outstanding, would not stop
// there. finish clears the flag.
func (c *Cluster) HoldOpen(on bool) { c.holdOpen = on }

// SetScheduler swaps the scheduling policy mid-run. Divergence-grid forks
// use it to continue a shared warmup under each variant policy.
func (c *Cluster) SetScheduler(s Scheduler) error {
	if s == nil {
		return errors.New("cluster: nil scheduler")
	}
	c.sched = s
	return nil
}

// SetControlPeriod retunes the control (load-information exchange) period
// mid-run, taking effect at the next control tick re-arm.
func (c *Cluster) SetControlPeriod(d time.Duration) error {
	if c.controlTicker == nil {
		return errors.New("cluster: control period can only be changed during a run")
	}
	if d < c.cfg.Quantum {
		return fmt.Errorf("cluster: control period %v below quantum %v", d, c.cfg.Quantum)
	}
	c.cfg.ControlPeriod = d
	return c.controlTicker.SetPeriod(d)
}

// InjectArrivals schedules additional jobs onto an armed run — the fork
// driver's divergence step, adding a per-seed tail after the shared warmup
// prefix. Jobs must arrive strictly after the current instant and are
// scheduled in the given order, which together with the arrival event
// class reproduces exactly the ordering a fresh run of the composite trace
// would have given them.
func (c *Cluster) InjectArrivals(jobs []*job.Job, homes []int) error {
	if len(jobs) != len(homes) {
		return fmt.Errorf("cluster: %d jobs with %d homes", len(jobs), len(homes))
	}
	now := c.engine.Now()
	for i, j := range jobs {
		if j.SubmitAt <= now {
			return fmt.Errorf("cluster: injected job %d arrives at %v, not after %v", j.ID, j.SubmitAt, now)
		}
		j, home := j, homes[i]
		if _, dup := c.homes[j.ID]; dup {
			return fmt.Errorf("cluster: injected job %d collides with an existing job ID", j.ID)
		}
		c.homes[j.ID] = home
		if _, err := c.engine.ScheduleClass(j.SubmitAt, sim.ClassArrival, func() {
			c.arrived++
			c.submit(j, home)
		}); err != nil {
			return err
		}
	}
	c.outstanding += len(jobs)
	c.ranJobs = append(c.ranJobs, jobs...)
	return nil
}

// Finish drives an armed run to completion and summarizes it under the
// given name — the fork driver's last step after Restore and
// InjectArrivals. Run and RunDiverged are Start plus Finish.
func (c *Cluster) Finish(name string) (*metrics.Result, error) { return c.finish(name) }

// finish drives an armed run to completion and summarizes it under the
// given trace name.
func (c *Cluster) finish(name string) (*metrics.Result, error) {
	defer c.cleanup()
	c.holdOpen = false
	if c.outstanding == 0 {
		// Everything already completed during a held-open warmup; there is
		// no completion event left to notice it.
		c.engine.Stop()
	}
	c.engine.Run()
	if c.runErr != nil {
		return nil, c.runErr
	}
	if c.timedOut {
		return nil, fmt.Errorf("cluster: %s/%s timed out at %v with %d jobs outstanding",
			name, c.sched.Name(), c.cfg.MaxVirtualTime, c.outstanding)
	}
	if c.auditor != nil {
		if err := c.auditor.Check(c.auditSnapshot()); err != nil {
			return nil, err
		}
		if c.obs != nil {
			if err := c.auditor.CheckTrace(c.obs.Events(), c.removedAt); err != nil {
				return nil, err
			}
		}
	}
	// The collector is cloned into the result so fork drivers can restore
	// and reuse the live collector without mutating results already built.
	return metrics.BuildResult(name, c.sched.Name(), c.ranJobs, c.col.Clone())
}

// submit routes one arriving (or retried) job through the policy. A home
// workstation retired mid-run is remapped to the lowest-ID live member, so
// trace arrivals keyed to it still have a submitter.
func (c *Cluster) submit(j *job.Job, home int) {
	home = c.effectiveHome(home)
	c.emit(obs.KindJobSubmit, home, j.ID, j.Restarts(), 0, 0)
	target, remote, ok := c.sched.Place(c, j, home)
	if !ok {
		c.emit(obs.KindJobBlock, home, j.ID, -1, 0, 0)
		c.pending = append(c.pending, pendingSubmission{j: j, home: home})
		return
	}
	c.place(j, home, target, remote)
}

func (c *Cluster) place(j *job.Job, home, target int, remote bool) {
	if target < 0 || target >= len(c.nodes) {
		c.pending = append(c.pending, pendingSubmission{j: j, home: home})
		return
	}
	// Debit the snapshot so same-period decisions spread out.
	_ = c.board.NotePlacement(target, j.MemoryDemandMB())
	if !remote {
		if err := c.nodes[target].Admit(j, c.engine.Now()); err != nil {
			c.emit(obs.KindJobBlock, target, j.ID, -1, 0, 0)
			c.pending = append(c.pending, pendingSubmission{j: j, home: home})
		}
		return
	}
	c.col.RemoteSubmissions++
	r := c.net.SubmissionCost()
	c.emit(obs.KindRemoteSubmit, target, j.ID, home, r.Seconds(), 0)
	c.remoteInFlight++
	c.engine.After(r, func() {
		c.remoteInFlight--
		n := c.nodes[target]
		if c.unreachable(target) || !n.HasSlot() || n.Reserved() {
			// The slot vanished while the submission was in flight;
			// requeue. A target retired mid-flight cannot be addressed
			// in the trace anymore, so the block is charged to the home.
			blockAt := target
			if n.Removed() {
				blockAt = c.effectiveHome(home)
			}
			c.emit(obs.KindJobBlock, blockAt, j.ID, -1, 0, 0)
			c.pending = append(c.pending, pendingSubmission{j: j, home: home})
			return
		}
		if err := n.Admit(j, c.engine.Now()); err != nil {
			c.emit(obs.KindJobBlock, target, j.ID, -1, 0, 0)
			c.pending = append(c.pending, pendingSubmission{j: j, home: home})
			return
		}
		// Attribute the remote latency r to migration overhead, not
		// queuing (see job.ReclassifyQueue). The admission wait so
		// far is at least r by construction.
		_ = j.ReclassifyQueue(r)
	})
}

// Migrate starts a preemptive migration of a running job to dstID,
// transferring its current memory image. special marks reservation
// service: the destination admits it even while reserved.
func (c *Cluster) Migrate(j *job.Job, dstID int, special bool) error {
	if j.State() != job.StateRunning {
		return fmt.Errorf("cluster: migrate job %d in state %v", j.ID, j.State())
	}
	srcID := j.Node()
	src, err := c.Node(srcID)
	if err != nil {
		return err
	}
	dst, err := c.Node(dstID)
	if err != nil {
		return err
	}
	if dstID == srcID {
		return fmt.Errorf("cluster: job %d migration to its own node %d", j.ID, srcID)
	}
	demand := j.MemoryDemandMB()
	// Hold destination capacity for the duration of the transfer, so the
	// target cannot fill up while the memory image is on the wire.
	if err := dst.ExpectMigration(j.ID, demand); err != nil {
		return err
	}
	if err := src.Detach(j, c.engine.Now()); err != nil {
		_ = dst.CancelExpected(j.ID)
		return err
	}
	c.col.Migrations++
	if special {
		c.col.ReservedMigration++
	}
	c.emit(obs.KindMigrationStart, srcID, j.ID, dstID, demand, specialFlag(special))
	_ = c.board.NotePlacement(dstID, demand)
	c.startTransfer(j, dstID, demand, 0, special, 1)
	return nil
}

// specialFlag marks reservation special service on migration events.
func specialFlag(special bool) uint8 {
	if special {
		return obs.FlagSpecial
	}
	return 0
}

// startTransfer ships a frozen job's memory image to dstID, landing it
// when the transfer completes. priorCost accumulates transfer time from
// earlier legs (retargeted strandings and aborted attempts); attempt is the
// 1-based try number for fault-injected aborts. On a shared network the
// transfer contends with other in-flight migrations.
func (c *Cluster) startTransfer(j *job.Job, dstID int, demandMB float64, priorCost time.Duration, special bool, attempt int) {
	// Register (or refresh) the wire entry first: from here until the job
	// lands or strands, it lives in the transfer registry — the auditor's
	// "frozen in migration" pool and the partition-abort index.
	t := c.wire[j.ID]
	if t == nil {
		t = &wireTransfer{}
		c.wire[j.ID] = t
	}
	t.j, t.dstID, t.demandMB, t.special, t.attempt = j, dstID, demandMB, special, attempt
	t.cost, t.legStart, t.linkID, t.waiting = priorCost, c.engine.Now(), -1, false
	if c.unreachable(dstID) {
		// The destination went dark (partitioned domain) or was retired
		// while this leg was being set up: fail fast instead of shipping
		// bytes to a workstation that cannot answer.
		c.migrationAborted(j, dstID, demandMB, priorCost, special, attempt)
		return
	}
	abort := false
	frac := 0.0
	if c.injector != nil {
		abort, frac = c.injector.AbortMigration()
	}
	r := c.net.SubmissionCost()
	if c.link == nil {
		full := c.net.MigrationCost(demandMB)
		if abort {
			partial := time.Duration(frac * float64(full))
			t.handle = c.engine.After(partial, func() {
				c.migrationAborted(j, dstID, demandMB, priorCost+partial, special, attempt)
			})
			return
		}
		cost := priorCost + full
		t.handle = c.engine.After(full, func() {
			c.landMigration(j, dstID, cost, special)
		})
		return
	}
	// Fixed remote-execution setup cost first, then the contended wire.
	t.handle = c.engine.After(r, func() {
		id, err := c.link.Start(demandMB, func(elapsed time.Duration) {
			c.landMigration(j, dstID, priorCost+r+elapsed, special)
		})
		if err != nil {
			// Unreachable by construction; strand the job so it is
			// retried rather than lost.
			c.col.FailedLandings++
			delete(c.wire, j.ID)
			c.stranded = append(c.stranded, strandedMigration{
				j: j, dstID: dstID, cost: priorCost + r, special: special,
				since: c.engine.Now(), strandedAt: c.engine.Now(), retransfer: true,
			})
			return
		}
		t.linkID = id
		if !abort {
			return
		}
		// The fault strikes when an uncontended transfer would be frac
		// complete. Under contention the transfer is still in flight then
		// and dies partway; if it somehow finished first, the fault
		// misses and Cancel reports false.
		wire := c.net.MigrationCost(demandMB) - r
		c.engine.After(time.Duration(frac*float64(wire)), func() {
			elapsed, ok := c.link.Cancel(id)
			if !ok {
				return
			}
			c.migrationAborted(j, dstID, demandMB, priorCost+r+elapsed, special, attempt)
		})
	})
}

// migrationAborted handles a transfer that died on the wire: the consumed
// wire time is sunk into the job's migration cost, and the attempt is
// retried to the same destination (whose capacity hold is still in place)
// after an exponential backoff charged in simulated time. Past the retry
// budget the hold is dropped and the job joins the stranded pool for
// retargeting at the next control period.
func (c *Cluster) migrationAborted(j *job.Job, dstID int, demandMB float64, cost time.Duration, special bool, attempt int) {
	c.col.MigrationAborts++
	c.emit(obs.KindMigrationAbort, -1, j.ID, dstID, cost.Seconds(), specialFlag(special))
	var plan faults.Plan
	if c.injector != nil {
		plan = c.injector.Plan()
	}
	if attempt < plan.MaxRetries {
		if t := c.wire[j.ID]; t != nil {
			// Nothing is on the wire during the backoff, but the job
			// stays in the registry: it is still "in migration" for
			// conservation purposes and must not be double-aborted.
			t.waiting = true
			t.cost = cost
			t.linkID = -1
		}
		c.col.MigrationRetries++
		backoff := plan.Backoff(attempt)
		c.emit(obs.KindMigrationRetry, -1, j.ID, attempt+1, backoff.Seconds(), specialFlag(special))
		c.engine.After(backoff, func() {
			_ = j.AddFrozenQueue(backoff)
			c.startTransfer(j, dstID, demandMB, cost, special, attempt+1)
		})
		return
	}
	c.col.MigrationGiveUps++
	c.emit(obs.KindMigrationGiveUp, -1, j.ID, dstID, 0, specialFlag(special))
	delete(c.wire, j.ID)
	if n, err := c.Node(dstID); err == nil {
		_ = n.CancelExpected(j.ID)
	}
	c.stranded = append(c.stranded, strandedMigration{
		j: j, dstID: dstID, cost: cost, special: special,
		since: c.engine.Now(), strandedAt: c.engine.Now(), retransfer: true,
	})
}

func (c *Cluster) landMigration(j *job.Job, dstID int, cost time.Duration, special bool) {
	delete(c.wire, j.ID)
	dst := c.nodes[dstID]
	if err := dst.AttachMigrated(j, cost, special, c.engine.Now()); err == nil {
		return
	}
	c.col.FailedLandings++
	c.stranded = append(c.stranded, strandedMigration{
		j: j, dstID: dstID, cost: cost, special: special,
		since: c.engine.Now(), strandedAt: c.engine.Now(),
	})
}

// crashNode fails one workstation: resident jobs are lost and either killed
// outright or resubmitted from their home workstations, per the fault
// plan's crash policy.
func (c *Cluster) crashNode(id int) error {
	if c.nodes[id].Removed() {
		return nil
	}
	now := c.engine.Now()
	lost, err := c.nodes[id].Crash(now)
	if err != nil {
		return err
	}
	c.col.NodeCrashes++
	policy := c.injector.Plan().Crash
	for _, j := range lost {
		switch policy {
		case faults.Requeue:
			if err := j.Requeue(now); err != nil {
				return err
			}
			c.col.JobsRequeued++
			c.emit(obs.KindJobRequeue, id, j.ID, c.homes[j.ID], 0, 0)
			c.submit(j, c.homes[j.ID])
		default:
			if err := j.Kill(now); err != nil {
				return err
			}
			c.col.JobsKilled++
			c.emit(obs.KindJobKill, id, j.ID, -1, 0, 0)
			c.outstanding--
		}
	}
	if c.outstanding == 0 && !c.holdOpen {
		c.engine.Stop()
	}
	return nil
}

// recoverNode repairs a crashed workstation; it rejoins the board at the
// next successful load-information exchange.
func (c *Cluster) recoverNode(id int) error {
	if c.nodes[id].Removed() {
		return nil
	}
	if err := c.nodes[id].Recover(); err != nil {
		return err
	}
	c.col.NodeRecoveries++
	return nil
}

// quantumTick advances every active workstation by the quantum due now and
// stops the engine once every job has finished.
func (c *Cluster) quantumTick() error {
	if err := c.advance(c.engine.Now(), 1); err != nil {
		return err
	}
	if c.outstanding == 0 && !c.holdOpen {
		c.engine.Stop()
	}
	return nil
}

// planBatch returns the longest stretch of quanta, starting at now, that
// is provably free of job completions on every active workstation (0 or 1
// means tick normally). Within such a stretch no scheduler callback can
// fire and no cross-node interaction exists, so each node can advance the
// whole stretch independently.
func (c *Cluster) planBatch(kMax int64) int64 {
	k := kMax
	q := c.cfg.Quantum
	for wi, w := range c.active {
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if k = c.nodes[id].CompletionFloor(q, k); k < 2 {
				return k
			}
		}
	}
	return k
}

// advance advances every active workstation by the k quanta due from now,
// in ascending node-ID order, each folding its stretch in one pass
// (node.Fold). Only the last quantum may complete jobs: k is 1, or
// planBatch proved the stretch completion-free. It iterates a snapshot of
// each word of the active set: completions clear bits and scheduler
// callbacks may set them mid-pass, and a node activated at this instant
// needs no quantum (its accounting starts now).
func (c *Cluster) advance(now time.Duration, k int64) error {
	for wi, w := range c.active {
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if err := c.fold(c.nodes[id], now, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// fold advances workstation n by the k quanta due from now and hands the
// jobs completed on the last of them to the scheduler.
func (c *Cluster) fold(n *node.Node, now time.Duration, k int64) error {
	done, err := n.Fold(c.cfg.Quantum, now, k)
	if err != nil {
		return err
	}
	for _, j := range done {
		c.outstanding--
		c.sched.OnJobDone(c, n, j)
	}
	return nil
}

// controlTick refreshes the load board, lets the policy act, then retries
// stranded migrations and blocked submissions against the updated state.
func (c *Cluster) controlTick() error {
	now := c.engine.Now()
	var dropped []uint64
	if c.injector != nil {
		var n int
		dropped, n = c.injector.Drops()
		c.col.RefreshDrops += n
	}
	if err := c.board.RefreshWith(now, c.nodes, dropped); err != nil {
		return err
	}
	c.sched.OnControl(c, now)
	if err := c.processDrains(now); err != nil {
		return err
	}
	if err := c.autoscaleTick(now); err != nil {
		return err
	}
	c.retryStranded(now)
	c.retryPending()
	c.degradePending(now)
	if len(c.pending) > c.col.PendingPeak {
		c.col.PendingPeak = len(c.pending)
	}
	if c.auditor != nil {
		if err := c.auditor.Check(c.auditSnapshot()); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) retryStranded(now time.Duration) {
	if len(c.stranded) == 0 {
		return
	}
	remaining := c.stranded[:0]
	for _, s := range c.stranded {
		// Time waited since the last accounted moment is queuing.
		if now > s.since {
			_ = s.j.AddFrozenQueue(now - s.since)
			s.since = now
		}
		// If the image reached the destination, try to land it there.
		dst := c.nodes[s.dstID]
		if !s.retransfer && dst.HasSlot() && (s.special || !dst.Reserved()) && !c.unreachable(s.dstID) {
			if err := dst.AttachMigrated(s.j, s.cost, s.special, now); err == nil {
				continue
			}
		}
		// Retarget: a fresh transfer to a qualified node, holding its
		// capacity for the flight. A landed-but-unattachable image
		// excludes its current host; a lost image may retry anywhere.
		demand := s.j.MemoryDemandMB()
		excludeID := -1
		if !s.retransfer {
			excludeID = s.dstID
		}
		if id, ok := c.board.BestDestinationExcluding(demand, excludeID); ok {
			if err := c.nodes[id].ExpectMigration(s.j.ID, demand); err == nil {
				_ = c.board.NotePlacement(id, demand)
				c.startTransfer(s.j, id, demand, s.cost, s.special, 1)
				continue
			}
		}
		// Graceful degradation: past the wait bound, land on the least
		// busy live workstation regardless of memory pressure — the job
		// pages locally instead of wedging the run.
		if limit, ok := c.degradeLimit(); ok && now-s.strandedAt > limit {
			if id, ok := c.degradeTarget(s.dstID); ok {
				if !s.retransfer && id == s.dstID {
					if err := dst.AttachMigrated(s.j, s.cost, s.special, now); err == nil {
						c.col.DegradedAdmits++
						c.emit(obs.KindDegrade, id, s.j.ID, -1, 0, 0)
						continue
					}
				} else if err := c.nodes[id].ExpectMigration(s.j.ID, demand); err == nil {
					c.col.DegradedAdmits++
					c.emit(obs.KindDegrade, id, s.j.ID, -1, 0, 0)
					_ = c.board.NotePlacement(id, demand)
					c.startTransfer(s.j, id, demand, s.cost, s.special, 1)
					continue
				}
			}
		}
		remaining = append(remaining, s)
	}
	c.stranded = remaining
}

// degradeLimit reports the graceful-degradation wait bound, if enabled.
func (c *Cluster) degradeLimit() (time.Duration, bool) {
	if c.injector == nil {
		return 0, false
	}
	limit := c.injector.Plan().DegradeAfter
	return limit, limit > 0
}

// degradeTarget picks a live, unreserved workstation with a free slot for a
// degraded placement: the submitter's preferred node if usable, otherwise
// the one running the fewest jobs (lowest ID on ties). Memory pressure is
// deliberately ignored — a degraded job pages locally.
func (c *Cluster) degradeTarget(prefer int) (int, bool) {
	if prefer >= 0 && prefer < len(c.nodes) {
		if p := c.nodes[prefer]; !p.Down() && !p.Reserved() && p.HasSlot() && !c.unreachable(prefer) {
			return prefer, true
		}
	}
	best, bestJobs, found := -1, 0, false
	for _, n := range c.nodes {
		if n.Down() || n.Reserved() || !n.HasSlot() || c.unreachable(n.ID()) {
			continue
		}
		if !found || n.NumJobs() < bestJobs {
			best, bestJobs, found = n.ID(), n.NumJobs(), true
		}
	}
	return best, found
}

// degradePending force-admits blocked submissions that have waited past
// the fault plan's degradation bound, so crashed-away capacity cannot
// wedge the cluster: the job runs with local paging instead of waiting for
// an unpressured slot that may never come back.
func (c *Cluster) degradePending(now time.Duration) {
	limit, ok := c.degradeLimit()
	if !ok || len(c.pending) == 0 {
		return
	}
	remaining := c.pending[:0]
	for _, p := range c.pending {
		if now-p.j.EnqueuedAt() <= limit {
			remaining = append(remaining, p)
			continue
		}
		if id, ok := c.degradeTarget(p.home); ok {
			if err := c.nodes[id].Admit(p.j, now); err == nil {
				c.col.DegradedAdmits++
				c.emit(obs.KindDegrade, id, p.j.ID, -1, 0, 0)
				_ = c.board.NotePlacement(id, p.j.MemoryDemandMB())
				continue
			}
		}
		remaining = append(remaining, p)
	}
	c.pending = remaining
}

// retryPending offers every blocked submission to the policy again, in
// FIFO order. The queue is double-buffered: the sweep refills the spare
// buffer, and the swept one is cleared and kept as the next spare, so a
// steady control period allocates nothing.
func (c *Cluster) retryPending() {
	if len(c.pending) == 0 {
		return
	}
	queue := c.pending
	c.pending = c.pendingNext
	for _, p := range queue {
		target, remote, ok := c.sched.Place(c, p.j, p.home)
		if !ok {
			// Preserve FIFO order for everything still blocked.
			c.pending = append(c.pending, p)
			continue
		}
		c.place(p.j, p.home, target, remote)
	}
	clear(queue)
	c.pendingNext = queue[:0]
}
