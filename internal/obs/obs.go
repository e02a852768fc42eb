// Package obs is the simulator's structured tracing layer: every scheduler
// decision — submissions, placements, migrations, blocking episodes,
// reservation leases, faults — emits one typed Event into a ring-buffered
// sink as it happens in virtual time. The layer is deterministic by
// construction (events are emitted from engine callbacks, which the
// discrete-event engine orders identically at any parallel fan-out width)
// and allocation-frugal: events are small value types, the bounded ring
// never allocates after construction, and with no sink installed every
// emit site reduces to a nil check on the tracer pointer.
//
// The same event stream feeds all consumers: the JSONL exporter for
// tooling (cmd/vrobs), the Chrome/Perfetto trace-event exporter for
// per-node timelines, and the human-readable tail printed by
// vrsim -events.
package obs

import (
	"fmt"
	"time"
)

// Kind is the event type. The taxonomy covers every decision the cluster,
// the policies, and the fault injector make; DESIGN.md §8 documents which
// component emits which kind.
type Kind uint8

// Event kinds.
const (
	KindInvalid Kind = iota

	// Job lifecycle (cluster and node).
	KindJobSubmit    // job routed through the policy (Aux = restart count)
	KindJobBlock     // no destination; job joined the pending queue
	KindJobAdmit     // job started on Node (Val = memory demand MB)
	KindRemoteSubmit // remote placement chosen; submission cost in flight (Val = seconds)
	KindJobDone      // job completed on Node
	KindJobKill      // job lost to a crash under the kill policy
	KindJobRequeue   // job lost to a crash, resubmitted from home

	// Migration (cluster and node).
	KindMigrationStart    // preemptive migration begun (Node = source, Aux = destination, Val = image MB)
	KindMigrationComplete // job landed on Node (Val = total transfer cost seconds)
	KindMigrationAbort    // transfer died on the wire (Aux = destination, Val = sunk cost seconds)
	KindMigrationRetry    // aborted attempt retried (Aux = next attempt, Val = backoff seconds)
	KindMigrationGiveUp   // retry budget exhausted; job stranded (Aux = destination)

	// Shared-link wire transfers (netlink; transfer IDs, not job IDs).
	KindTransferStart  // payload entered the shared link (Aux = transfer ID, Val = MB)
	KindTransferEnd    // payload fully crossed (Aux = transfer ID, Val = elapsed seconds)
	KindTransferCancel // payload aborted mid-wire (Aux = transfer ID, Val = elapsed seconds)

	// Blocking episodes and reservation lifecycle (core.Manager).
	KindEpisodeOpen    // blocking problem appeared cluster-wide
	KindEpisodeClose   // blocking problem resolved (Val = episode seconds)
	KindReserveAcquire // reserving period started on Node (Val = blocked demand MB)
	KindReservePromote // drain complete; Node entered special service (Aux = victims)
	KindReserveRelease // reservation dropped on Node (Val = held seconds)
	KindLeaseExpire    // lease timed out or broke (FlagCrash when crash-broken)
	KindLeaseReselect  // expired/broken lease re-established on Node (Aux = excluded node)

	// Faults (faults.Injector) and degradation (cluster).
	KindNodeCrash  // workstation failed
	KindNodeRepair // workstation repaired
	KindDegrade    // blocked/stranded job force-admitted to Node past the wait bound

	// Periodic per-node time series (cluster sample ticker).
	KindNodeSample // Aux = resident jobs, Val = idle MB, Flags = reserved/down

	// Dynamic membership (cluster) and correlated failure domains
	// (faults.Injector).
	KindNodeJoin      // workstation added at runtime (Aux = live node count)
	KindNodeDrain     // graceful drain started on Node (Aux = resident jobs)
	KindNodeRemove    // drained workstation retired (Aux = live node count)
	KindDomainOutage  // failure domain went dark (Node = -1, Aux = domain, Val = members; FlagPartition for partitions)
	KindDomainRestore // failure domain came back (Node = -1, Aux = domain, Val = members; FlagPartition for partitions)

	kindCount // sentinel
)

var kindNames = [kindCount]string{
	KindInvalid:           "invalid",
	KindJobSubmit:         "job-submit",
	KindJobBlock:          "job-block",
	KindJobAdmit:          "job-admit",
	KindRemoteSubmit:      "remote-submit",
	KindJobDone:           "job-done",
	KindJobKill:           "job-kill",
	KindJobRequeue:        "job-requeue",
	KindMigrationStart:    "migration-start",
	KindMigrationComplete: "migration-complete",
	KindMigrationAbort:    "migration-abort",
	KindMigrationRetry:    "migration-retry",
	KindMigrationGiveUp:   "migration-giveup",
	KindTransferStart:     "transfer-start",
	KindTransferEnd:       "transfer-end",
	KindTransferCancel:    "transfer-cancel",
	KindEpisodeOpen:       "episode-open",
	KindEpisodeClose:      "episode-close",
	KindReserveAcquire:    "reserve-acquire",
	KindReservePromote:    "reserve-promote",
	KindReserveRelease:    "reserve-release",
	KindLeaseExpire:       "lease-expire",
	KindLeaseReselect:     "lease-reselect",
	KindNodeCrash:         "node-crash",
	KindNodeRepair:        "node-repair",
	KindDegrade:           "degrade",
	KindNodeSample:        "node-sample",
	KindNodeJoin:          "node-join",
	KindNodeDrain:         "node-drain",
	KindNodeRemove:        "node-remove",
	KindDomainOutage:      "domain-outage",
	KindDomainRestore:     "domain-restore",
}

// String names the kind for exports and reports.
func (k Kind) String() string {
	if k >= kindCount {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// ParseKind inverts String for the JSONL reader.
func ParseKind(s string) (Kind, error) {
	for k := Kind(1); k < kindCount; k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return KindInvalid, fmt.Errorf("obs: unknown event kind %q", s)
}

// Event flag bits. Their meaning is kind-specific.
const (
	// FlagSpecial marks reservation special service on migration events.
	FlagSpecial uint8 = 1 << iota
	// FlagReserved marks a sampled node as reserved (KindNodeSample).
	FlagReserved
	// FlagDown marks a sampled node as crashed (KindNodeSample).
	FlagDown
	// FlagCrash marks a lease expiry/release caused by a workstation crash.
	FlagCrash
	// FlagPartition marks a domain outage as a network partition (board
	// silence and transfer aborts) rather than a crash wave.
	FlagPartition
	// FlagDrain marks a lease expiry/release caused by a node drain, and a
	// sampled node as draining (KindNodeSample).
	FlagDrain
)

// Event is one scheduler decision at a simulated instant. It is a compact
// value type so the ring buffer holds events inline with no per-event
// allocation. Node, Job, and Aux are -1 when not applicable.
type Event struct {
	At    time.Duration // simulated time
	Kind  Kind
	Flags uint8
	Node  int32   // primary workstation
	Job   int32   // job ID
	Aux   int32   // kind-specific: destination node, attempt, transfer ID, resident jobs
	Val   float64 // kind-specific: MB, seconds
}

// Tracer is the event sink handed to the cluster and its components. A nil
// *Tracer is the disabled tracer: every method is safe to call on it and
// does nothing, so instrumented hot paths pay only a nil check when no
// sink is installed.
//
// Beyond retention, a tracer fans the live stream out to two optional
// streaming consumers attached with SetMetrics and SetFlightRecorder: a
// metrics Series folding every event into atomic counters/histograms, and
// a FlightRecorder keeping a bounded anomaly ring. Both cost one nil check
// each on the enabled path and nothing at all when tracing is off.
type Tracer struct {
	buf     []Event
	cap     int // >0 bounds the ring to the last cap events
	start   int // ring head once the bounded buffer has wrapped
	dropped uint64

	// discard marks a stream-only tracer: events flow to the attached
	// consumers but none are retained, and Snapshot/Restore are no-ops.
	discard bool

	metrics *Series
	rec     *FlightRecorder
}

// NewTracer builds a sink. capacity > 0 keeps only the most recent
// capacity events (counting the rest as dropped) with a single up-front
// allocation; capacity <= 0 retains every event, growing as needed.
func NewTracer(capacity int) *Tracer {
	t := &Tracer{cap: capacity}
	if capacity > 0 {
		t.buf = make([]Event, 0, capacity)
	}
	return t
}

// NewStreamTracer builds a retention-free sink: every event still reaches
// the attached metrics Series and FlightRecorder, but nothing is buffered,
// Events() stays empty, and Snapshot/Restore are allocation-free no-ops.
// This is the sink for live telemetry on long runs (vrsim -metrics without
// -trace), where a full trace would be gigabytes but the aggregates and
// the anomaly ring are all that matter.
func NewStreamTracer() *Tracer {
	return &Tracer{discard: true}
}

// SetMetrics attaches a metrics series; every subsequent event is folded
// into it. Nil detaches; nil tracers ignore the call.
func (t *Tracer) SetMetrics(s *Series) {
	if t != nil {
		t.metrics = s
	}
}

// Metrics returns the attached metrics series, if any.
func (t *Tracer) Metrics() *Series {
	if t == nil {
		return nil
	}
	return t.metrics
}

// SetFlightRecorder attaches an anomaly flight recorder; every subsequent
// event enters its bounded ring and is screened against its SLOs. Nil
// detaches; nil tracers ignore the call.
func (t *Tracer) SetFlightRecorder(r *FlightRecorder) {
	if t != nil {
		t.rec = r
	}
}

// Flight returns the attached flight recorder, if any.
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Enabled reports whether a sink is installed. Emit sites that must do
// preparatory work (building per-node samples, recomputing a predicate)
// gate on it; plain emissions just call Emit.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit appends one event. On a nil tracer it is a no-op.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if t.metrics != nil {
		t.metrics.observe(ev)
	}
	if t.rec != nil {
		t.rec.observe(ev)
	}
	if t.discard {
		return
	}
	if t.cap > 0 && len(t.buf) == t.cap {
		t.buf[t.start] = ev
		t.start++
		if t.start == t.cap {
			t.start = 0
		}
		t.dropped++
		return
	}
	t.buf = append(t.buf, ev)
}

// EmitSamples emits one sample tick's per-node series as a batch: every
// event must be a KindNodeSample at one instant. Consumers see exactly
// what Emit on each event in order would give them, but fold the batch in
// one pass: the metrics series adds one kind count and publishes once per
// partition, the flight recorder screens the batch's single instant once
// and copies the events into its ring in bulk, and a retaining tracer
// appends them. On a nil tracer or an empty batch it is a no-op.
func (t *Tracer) EmitSamples(evs []Event) {
	if t == nil || len(evs) == 0 {
		return
	}
	if t.metrics != nil {
		t.metrics.observeSamples(evs)
	}
	if t.rec != nil {
		t.rec.observeSamples(evs)
	}
	if t.discard {
		return
	}
	if t.cap <= 0 {
		t.buf = append(t.buf, evs...)
		return
	}
	if room := t.cap - len(t.buf); room > 0 {
		n := min(room, len(evs))
		t.buf = append(t.buf, evs[:n]...)
		evs = evs[n:]
	}
	t.dropped += uint64(len(evs))
	t.start = overwrite(t.buf, t.start, evs)
}

// overwrite stores evs into the full ring buf from position pos onward,
// wrapping, and returns the position after the last one. Read from that
// position, the ring holds what storing the events one by one would leave:
// at most the last len(buf) of them, oldest first.
func overwrite(buf []Event, pos int, evs []Event) int {
	if len(evs) == 0 {
		return pos
	}
	if over := len(evs) - len(buf); over > 0 {
		evs = evs[over:]
	}
	n := copy(buf[pos:], evs)
	copy(buf, evs[n:])
	return (pos + len(evs)) % len(buf)
}

// Len reports the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped reports events evicted by a bounded ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events in emission order. The slice is a
// copy; callers may keep it across further emissions.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.start:]...)
	out = append(out, t.buf[:t.start]...)
	return out
}

// TracerSnapshot captures a sink's retained events and ring position for
// cluster forking.
type TracerSnapshot struct {
	events  []Event
	start   int
	dropped uint64
}

// Snapshot captures the tracer's state (a deep copy of the buffer). Nil
// tracers snapshot to nil. Stream tracers retain nothing, so their
// snapshot is empty — metrics and flight-recorder state is live telemetry
// and deliberately not rewound by cluster forks.
func (t *Tracer) Snapshot() *TracerSnapshot {
	if t == nil {
		return nil
	}
	if t.discard {
		return &TracerSnapshot{}
	}
	return &TracerSnapshot{
		events:  append([]Event(nil), t.buf...),
		start:   t.start,
		dropped: t.dropped,
	}
}

// Restore rewinds the tracer to a prior Snapshot. The buffer is rebuilt on
// a fresh backing array — never by truncating the live one — so event
// slices exported by an earlier fork (and any JSONL writer still holding
// them) are immune to appends from the next fork: forked runs get
// independent sinks even though they share the Tracer object.
func (t *Tracer) Restore(s *TracerSnapshot) {
	if t == nil || s == nil || t.discard {
		return
	}
	grow := 0
	if t.cap <= 0 {
		grow = 1024 // headroom so the next fork's first emissions don't reallocate
	}
	buf := make([]Event, len(s.events), len(s.events)+grow)
	copy(buf, s.events)
	if t.cap > 0 && cap(buf) < t.cap {
		bounded := make([]Event, len(buf), t.cap)
		copy(bounded, buf)
		buf = bounded
	}
	t.buf = buf
	t.start = s.start
	t.dropped = s.dropped
}

// Span is one duration interval reconstructed from paired events: a
// blocking episode (Node = -1) or a reservation's hold on a workstation.
type Span struct {
	Node       int
	Start, End time.Duration
	Complete   bool // false when the trace ended with the span still open
}

// Duration reports the span length (zero while incomplete at Start).
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Episodes pairs KindEpisodeOpen/KindEpisodeClose events into spans, in
// open order. A trailing open episode yields an incomplete span ending at
// the last event's timestamp.
func Episodes(events []Event) []Span {
	var out []Span
	open := -1
	var last time.Duration
	for _, ev := range events {
		if ev.At > last {
			last = ev.At
		}
		switch ev.Kind {
		case KindEpisodeOpen:
			if open < 0 {
				open = len(out)
				out = append(out, Span{Node: -1, Start: ev.At})
			}
		case KindEpisodeClose:
			if open >= 0 {
				out[open].End = ev.At
				out[open].Complete = true
				open = -1
			}
		}
	}
	if open >= 0 {
		out[open].End = last
	}
	return out
}

// ReservationSpans pairs KindReserveAcquire/KindReserveRelease events per
// workstation into spans, in acquire order.
func ReservationSpans(events []Event) []Span {
	var out []Span
	open := map[int32]int{} // node -> index into out
	var last time.Duration
	for _, ev := range events {
		if ev.At > last {
			last = ev.At
		}
		switch ev.Kind {
		case KindReserveAcquire:
			if _, ok := open[ev.Node]; !ok {
				open[ev.Node] = len(out)
				out = append(out, Span{Node: int(ev.Node), Start: ev.At})
			}
		case KindReserveRelease:
			if i, ok := open[ev.Node]; ok {
				out[i].End = ev.At
				out[i].Complete = true
				delete(open, ev.Node)
			}
		}
	}
	for _, i := range sortedSpanIdx(open) {
		out[i].End = last
	}
	return out
}

// sortedSpanIdx returns open-span indices in ascending order so trailing
// incomplete spans are finalized deterministically.
func sortedSpanIdx(open map[int32]int) []int {
	idx := make([]int, 0, len(open))
	for _, i := range open {
		idx = append(idx, i)
	}
	for a := 1; a < len(idx); a++ {
		for b := a; b > 0 && idx[b] < idx[b-1]; b-- {
			idx[b], idx[b-1] = idx[b-1], idx[b]
		}
	}
	return idx
}

// Latency is one completed migration: the wall time between the migration
// starting on From and the job landing on To.
type Latency struct {
	Job      int
	From, To int
	D        time.Duration
}

// MigrationLatencies pairs each KindMigrationStart with the job's next
// KindMigrationComplete, in completion order. Migrations still in flight
// at the end of the trace are omitted.
func MigrationLatencies(events []Event) []Latency {
	type inflight struct {
		at   time.Duration
		from int32
	}
	open := map[int32]inflight{}
	var out []Latency
	for _, ev := range events {
		switch ev.Kind {
		case KindMigrationStart:
			open[ev.Job] = inflight{at: ev.At, from: ev.Node}
		case KindMigrationComplete:
			if s, ok := open[ev.Job]; ok {
				out = append(out, Latency{
					Job:  int(ev.Job),
					From: int(s.from),
					To:   int(ev.Node),
					D:    ev.At - s.at,
				})
				delete(open, ev.Job)
			}
		}
	}
	return out
}

// CountByKind tallies events per kind.
func CountByKind(events []Event) map[Kind]int {
	out := make(map[Kind]int)
	for _, ev := range events {
		out[ev.Kind]++
	}
	return out
}
