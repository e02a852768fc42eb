// Anomaly flight recorder: a bounded ring of the most recent events that
// stays cheap in steady state (one ring store per event plus a few
// comparisons) and dumps its contents as JSONL when something goes wrong —
// an audit invariant violation, a blocking episode or migration latency
// past its SLO, or an operator signal (vrsim wires SIGQUIT). The dump is a
// plain event trace, so vrobs and vrdiff consume it directly, and because
// it is produced on the simulation goroutine from deterministically
// ordered events, the same seed and trigger yield byte-identical dumps at
// any parallel fan-out width.
package obs

import (
	"sync/atomic"
	"time"
)

// DefaultFlightRing is the ring capacity when FlightConfig.Ring is unset.
const DefaultFlightRing = 4096

// defaultMaxDumps bounds sink invocations per run so a persistently
// breaching SLO cannot turn the recorder into a full-trace writer.
const defaultMaxDumps = 8

// FlightConfig parameterizes a recorder.
type FlightConfig struct {
	// Ring is the number of events retained (default DefaultFlightRing).
	Ring int

	// EpisodeSLO triggers a dump when a blocking episode has been open
	// longer than this (checked on every event while open, so a wedged
	// episode fires without waiting for its close). Zero disables.
	EpisodeSLO time.Duration

	// MigrationSLO triggers a dump when a completed migration's total
	// transfer cost exceeds this. Zero disables.
	MigrationSLO time.Duration

	// MaxDumps caps sink invocations (default 8); further triggers are
	// still counted. Negative means unlimited.
	MaxDumps int

	// Sink receives each dump: the trigger reason and the ring contents
	// in emission order. A nil sink counts triggers without dumping.
	Sink func(reason string, events []Event) error
}

// FlightRecorder keeps the bounded ring and screens the stream against
// the configured SLOs. All methods except RequestDump must be called from
// the goroutine emitting events (the simulation goroutine).
type FlightRecorder struct {
	ring    []Event
	pos     int
	wrapped bool

	epSLO  time.Duration
	migSLO time.Duration

	episodeOpen  bool
	episodeAt    time.Duration
	episodeFired bool // one dump per breaching episode
	migFired     bool // one dump for the first breaching migration

	sink     func(string, []Event) error
	maxDumps int
	dumps    int
	triggers int
	lastWhy  string
	lastErr  error

	// asked is the cross-goroutine dump request (signal handlers); it is
	// consumed on the simulation goroutine at the next event.
	asked atomic.Bool
}

// NewFlightRecorder builds a recorder.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Ring <= 0 {
		cfg.Ring = DefaultFlightRing
	}
	if cfg.MaxDumps == 0 {
		cfg.MaxDumps = defaultMaxDumps
	}
	return &FlightRecorder{
		ring:     make([]Event, cfg.Ring),
		epSLO:    cfg.EpisodeSLO,
		migSLO:   cfg.MigrationSLO,
		sink:     cfg.Sink,
		maxDumps: cfg.MaxDumps,
	}
}

// observe records one event and checks the trigger conditions. Called
// from Tracer.Emit.
func (r *FlightRecorder) observe(ev Event) {
	r.ring[r.pos] = ev
	r.pos++
	if r.pos == len(r.ring) {
		r.pos = 0
		r.wrapped = true
	}
	switch ev.Kind {
	case KindEpisodeOpen:
		r.episodeOpen = true
		r.episodeAt = ev.At
		r.episodeFired = false
	case KindEpisodeClose:
		r.episodeOpen = false
	case KindMigrationComplete:
		if r.migSLO > 0 && !r.migFired && ev.Val > r.migSLO.Seconds() {
			r.migFired = true
			r.Trigger("slo-migration")
		}
	}
	if r.episodeOpen && !r.episodeFired && r.epSLO > 0 && ev.At-r.episodeAt > r.epSLO {
		r.episodeFired = true
		r.Trigger("slo-episode")
	}
	if r.asked.Load() && r.asked.CompareAndSwap(true, false) {
		r.Trigger("signal")
	}
}

// observeSamples records a batch of node samples (Tracer.EmitSamples).
// Screening the first event is enough: the batch shares one instant, and
// samples change no screening state, so an episode SLO that does not fire
// on the first sample cannot fire on the rest. The others are copied into
// the ring in bulk.
func (r *FlightRecorder) observeSamples(evs []Event) {
	r.observe(evs[0])
	rest := evs[1:]
	if r.pos+len(rest) >= len(r.ring) {
		r.wrapped = true
	}
	r.pos = overwrite(r.ring, r.pos, rest)
}

// Trigger dumps the ring to the sink with the given reason. The audit
// hook and SLO checks call it on the simulation goroutine; tests may call
// it directly. Past MaxDumps the trigger is counted but not dumped.
func (r *FlightRecorder) Trigger(reason string) {
	if r == nil {
		return
	}
	r.triggers++
	r.lastWhy = reason
	if r.sink == nil || (r.maxDumps >= 0 && r.dumps >= r.maxDumps) {
		return
	}
	r.dumps++
	if err := r.sink(reason, r.Events()); err != nil && r.lastErr == nil {
		r.lastErr = err
	}
}

// RequestDump asks for a dump from another goroutine (a signal handler);
// the dump happens on the simulation goroutine at the next event, keeping
// the ring read race-free.
func (r *FlightRecorder) RequestDump() {
	if r != nil {
		r.asked.Store(true)
	}
}

// Events returns the ring contents in emission order (a copy).
func (r *FlightRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	if !r.wrapped {
		return append([]Event(nil), r.ring[:r.pos]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.pos:]...)
	out = append(out, r.ring[:r.pos]...)
	return out
}

// Triggers reports how many trigger conditions have fired.
func (r *FlightRecorder) Triggers() int {
	if r == nil {
		return 0
	}
	return r.triggers
}

// Dumps reports how many dumps reached the sink.
func (r *FlightRecorder) Dumps() int {
	if r == nil {
		return 0
	}
	return r.dumps
}

// LastReason reports the most recent trigger reason.
func (r *FlightRecorder) LastReason() string {
	if r == nil {
		return ""
	}
	return r.lastWhy
}

// Err reports the first sink error, if any.
func (r *FlightRecorder) Err() error {
	if r == nil {
		return nil
	}
	return r.lastErr
}
