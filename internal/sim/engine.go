// Package sim implements the discrete-event simulation engine underlying the
// cluster simulator: a virtual clock and a binary-heap event queue with
// deterministic FIFO tie-breaking. All simulated components schedule
// callbacks on an Engine; nothing in the simulator reads the wall clock, so
// a run is fully determined by its inputs. The engine holds no randomness:
// every random stream belongs to the component that draws from it.
//
// The queue is allocation-free in steady state: events live in a slot arena
// recycled through a free list, the heap orders value entries (no per-event
// heap allocation), and cancellation is O(1) — the slot and its callback are
// released immediately, with the stale heap entry skipped lazily via a
// generation stamp when it reaches the top.
package sim

import (
	"errors"
	"math"
	"time"
)

// ErrClockRegression is returned when an event is scheduled before the
// current virtual time.
var ErrClockRegression = errors.New("sim: event scheduled in the past")

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and refers to no event.
type Handle struct {
	slot int32  // 1-based arena slot; 0 means no event
	gen  uint32 // arena slot generation at scheduling time
}

// eventSlot is one arena cell. gen increments every time the slot is
// released (fired or cancelled), invalidating outstanding Handles and any
// stale heap entry still pointing at it.
type eventSlot struct {
	fn  func()
	gen uint32
}

// Event classes order same-instant events independently of scheduling
// sequence. Within one instant, all ClassArrival events run before all
// ClassNormal events, which run before all ClassDiverge events; within a
// class, scheduling order (seq) still breaks ties. Classes exist so that a
// forked run — whose runtime events carry different absolute sequence
// numbers than a fresh run's — reproduces the fresh run's same-instant
// ordering exactly: trace arrivals always beat runtime machinery, and a
// divergence-point mutation always runs after every same-instant event of
// the shared prefix.
const (
	// ClassArrival is reserved for trace job arrivals (and arrivals
	// injected into a forked run at its divergence point).
	ClassArrival uint8 = 0
	// ClassNormal is every ordinary event; Schedule and After use it.
	ClassNormal uint8 = 1
	// ClassDiverge runs after all same-instant activity; RunToDivergence
	// stops just before events of this class at the divergence time.
	ClassDiverge uint8 = 2
)

// heapEntry is a by-value queue element; at/class/seq give the
// deterministic (time, class, FIFO) order, slot/gen locate the callback
// and detect staleness.
type heapEntry struct {
	at    time.Duration
	seq   uint64
	slot  int32
	gen   uint32
	class uint8
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; the simulated cluster is driven from one goroutine and
// parallelism across simulations is achieved by running independent Engines.
type Engine struct {
	now     time.Duration
	heap    []heapEntry
	slots   []eventSlot
	free    []int32
	seq     uint64
	live    int
	stopped bool

	// ceiling bounds clock advances while a RunToDivergence drive is in
	// progress (hasCeiling). Scoped to the drive's dynamic extent, so it
	// never appears in snapshots.
	ceiling    time.Duration
	hasCeiling bool
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Len reports the number of scheduled, uncancelled events.
func (e *Engine) Len() int { return e.live }

// Schedule runs fn at absolute virtual time at. Events scheduled for the
// same instant run in scheduling order. Scheduling in the past returns
// ErrClockRegression.
func (e *Engine) Schedule(at time.Duration, fn func()) (Handle, error) {
	return e.ScheduleClass(at, ClassNormal, fn)
}

// ScheduleClass runs fn at absolute virtual time at within the given
// ordering class; same-instant events run in (class, scheduling) order.
// Scheduling in the past returns ErrClockRegression.
func (e *Engine) ScheduleClass(at time.Duration, class uint8, fn func()) (Handle, error) {
	if at < e.now {
		return Handle{}, ErrClockRegression
	}
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.fn = fn
	e.push(heapEntry{at: at, seq: e.seq, slot: idx, gen: s.gen, class: class})
	e.live++
	return Handle{slot: idx + 1, gen: s.gen}, nil
}

// After runs fn after delay d from the current virtual time. Negative delays
// are clamped to zero, and a delay reaching past the last representable
// instant schedules fn there (math.MaxInt64) rather than wrapping.
func (e *Engine) After(d time.Duration, fn func()) Handle {
	at := time.Duration(math.MaxInt64)
	if d < 0 {
		d = 0
	}
	if d <= at-e.now {
		at = e.now + d
	}
	h, _ := e.Schedule(at, fn) // future by construction; cannot fail
	return h
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending. The callback and its arena slot are released immediately — a
// cancelled closure is never pinned until its heap entry surfaces — and the
// entry left in the heap is dropped lazily by generation mismatch.
func (e *Engine) Cancel(h Handle) bool {
	if h.slot <= 0 || int(h.slot) > len(e.slots) {
		return false
	}
	s := &e.slots[h.slot-1]
	if s.gen != h.gen || s.fn == nil {
		return false
	}
	e.release(h.slot-1, s)
	return true
}

// release frees slot idx: the callback is dropped, the generation bumped
// (orphaning heap entries and handles), and the slot returned to the pool.
func (e *Engine) release(idx int32, s *eventSlot) {
	s.fn = nil
	s.gen++
	e.free = append(e.free, idx)
	e.live--
}

// Step executes the next pending event, advancing the clock to its time. It
// reports whether an event ran.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		top := e.heap[0]
		e.pop()
		s := &e.slots[top.slot]
		if s.gen != top.gen {
			continue // cancelled; slot already recycled
		}
		fn := s.fn
		e.release(top.slot, s)
		e.now = top.at
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called. A stop is
// sticky: if Stop was called — even before Run — no event executes until
// Reset clears it.
func (e *Engine) Run() {
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with time <= deadline, then advances the clock to
// the deadline (if it is later than the last event executed). Like Run it
// honors a sticky stop; a stopped engine executes nothing and keeps its
// clock where the stop left it.
func (e *Engine) RunUntil(deadline time.Duration) {
	for !e.stopped {
		next, ok := e.peek()
		if !ok || next > deadline {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunToDivergence executes events up to virtual time at — including every
// same-instant event of class below ClassDiverge — then advances the clock
// to at, leaving ClassDiverge events at that instant (and everything
// later) pending. It is the warmup half of a snapshot/fork: the engine
// lands on exactly the state a fresh run has when its divergence-class
// event at at fires. A sticky stop is honored as in Run.
//
// While the drive is active, at is published as the advance ceiling (see
// AdvanceCeiling): batching event callbacks that advance the clock
// themselves must stop at the ceiling, or the fork driver's injected
// arrivals — which land just after it — would arrive in the clock's past.
func (e *Engine) RunToDivergence(at time.Duration) {
	e.ceiling, e.hasCeiling = at, true
	defer func() { e.hasCeiling = false }()
	for !e.stopped {
		top, ok := e.peekEntry()
		if !ok || top.at > at || (top.at == at && top.class >= ClassDiverge) {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < at {
		e.now = at
	}
}

// AdvanceCeiling reports the clock ceiling of an in-progress
// RunToDivergence drive. While set, event callbacks must not move the
// clock (AdvanceTo) past the ceiling; instants beyond it belong to the
// forked continuation.
func (e *Engine) AdvanceCeiling() (time.Duration, bool) {
	return e.ceiling, e.hasCeiling
}

// AdvanceTo moves the clock forward to t without running anything. It is
// the batching primitive for drivers that interleave fixed-period work
// between engine events: advancing past a pending event would reorder
// history, so t must not exceed the earliest pending event's time.
func (e *Engine) AdvanceTo(t time.Duration) error {
	if t < e.now {
		return ErrClockRegression
	}
	if next, ok := e.peek(); ok && next < t {
		return errors.New("sim: advance past a pending event")
	}
	e.now = t
	return nil
}

// Stop makes the current Run or RunUntil return after the in-flight event
// completes. The stop is sticky: later Run/RunUntil calls return
// immediately until Reset is called, so a Stop issued between runs is
// never silently dropped.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether a sticky stop is in effect.
func (e *Engine) Stopped() bool { return e.stopped }

// Reset clears a sticky stop so the engine can resume execution. The
// clock, queue, and random source are untouched.
func (e *Engine) Reset() { e.stopped = false }

// NextEventAt reports the virtual time of the earliest pending event, if
// any. Drivers use it to fast-forward periodic work across provably idle
// stretches without disturbing event order.
func (e *Engine) NextEventAt() (time.Duration, bool) { return e.peek() }

func (e *Engine) peek() (time.Duration, bool) {
	ent, ok := e.peekEntry()
	return ent.at, ok
}

func (e *Engine) peekEntry() (heapEntry, bool) {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if e.slots[top.slot].gen != top.gen {
			e.pop() // stale entry for a cancelled event
			continue
		}
		return top, true
	}
	return heapEntry{}, false
}

// push appends ent and restores the heap invariant (sift up).
func (e *Engine) push(ent heapEntry) {
	e.heap = append(e.heap, ent)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// pop removes the root entry and restores the heap invariant (sift down).
func (e *Engine) pop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && entryLess(e.heap[r], e.heap[l]) {
			m = r
		}
		if !entryLess(e.heap[m], e.heap[i]) {
			break
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
}

// Ticker invokes a callback at a fixed virtual period until stopped. It is
// the building block for quantum ticks and periodic load-information
// exchange.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	fn      func()
	rearm   func() // t.tick bound once, so re-arming never allocates
	handle  Handle
	stopped bool
}

// NewTicker schedules fn every period, with the first invocation one period
// from now. Period must be positive.
func NewTicker(e *Engine, period time.Duration, fn func()) (*Ticker, error) {
	if period <= 0 {
		return nil, errors.New("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.rearm = t.tick
	t.handle = e.After(period, t.rearm)
	return t, nil
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	// Re-arm before invoking the callback so that t.handle always refers
	// to the pending next tick: a Stop issued from inside fn cancels that
	// live handle directly instead of a stale one, and no re-armed event
	// can leak past the stop.
	t.handle = t.engine.After(t.period, t.rearm)
	t.fn()
}

// Stop cancels future invocations.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.engine.Cancel(t.handle)
}

// Period reports the current tick period.
func (t *Ticker) Period() time.Duration { return t.period }

// SetPeriod changes the tick period. The already-armed next tick keeps
// its scheduled time; the new period takes effect from the re-arm after
// it fires — exactly the behavior of mutating the period between ticks.
func (t *Ticker) SetPeriod(period time.Duration) error {
	if period <= 0 {
		return errors.New("sim: ticker period must be positive")
	}
	t.period = period
	return nil
}

// TickerSnapshot captures a ticker's mutable state for Engine forking.
// The pending tick event itself lives in the engine's queue and is
// restored by Engine.Restore; the snapshot records which handle that is,
// plus the period and stop flag.
type TickerSnapshot struct {
	Period  time.Duration
	Handle  Handle
	Stopped bool
}

// Snapshot captures the ticker's state. Pair it with an Engine.Snapshot
// taken at the same instant.
func (t *Ticker) Snapshot() TickerSnapshot {
	return TickerSnapshot{Period: t.period, Handle: t.handle, Stopped: t.stopped}
}

// Restore rewinds the ticker to a prior Snapshot. Valid only together
// with an Engine.Restore of the matching engine snapshot, which revives
// the arena slot the saved handle points at.
func (t *Ticker) Restore(s TickerSnapshot) {
	t.period, t.handle, t.stopped = s.Period, s.Handle, s.Stopped
}
