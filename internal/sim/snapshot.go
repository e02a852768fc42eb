package sim

import "time"

// EngineSnapshot is a deep copy of an engine's mutable state: the clock,
// the event queue (heap order, arena slots with their callbacks and
// generation stamps, free list), the sequence counter and the stop flag.
// Restoring it rewinds the engine in place — the callbacks themselves are
// shared with the snapshot, which is exactly right for fork-style reuse:
// closures captured during the shared prefix point at simulation objects
// that the caller rewinds alongside the engine.
type EngineSnapshot struct {
	now     time.Duration
	heap    []heapEntry
	slots   []eventSlot
	free    []int32
	seq     uint64
	live    int
	stopped bool
}

// Now reports the virtual time at which the snapshot was taken.
func (s *EngineSnapshot) Now() time.Duration { return s.now }

// Snapshot captures the engine's complete mutable state.
func (e *Engine) Snapshot() *EngineSnapshot {
	return &EngineSnapshot{
		now:     e.now,
		heap:    append([]heapEntry(nil), e.heap...),
		slots:   append([]eventSlot(nil), e.slots...),
		free:    append([]int32(nil), e.free...),
		seq:     e.seq,
		live:    e.live,
		stopped: e.stopped,
	}
}

// Restore rewinds the engine to a prior Snapshot, reusing existing
// capacity. Events scheduled after the snapshot vanish; events that fired
// or were cancelled after it are pending again (their arena slots revert
// to the saved generation, so handles taken before the snapshot work
// again and handles taken after it go stale).
func (e *Engine) Restore(s *EngineSnapshot) {
	e.now = s.now
	e.heap = append(e.heap[:0], s.heap...)
	e.slots = append(e.slots[:0], s.slots...)
	e.free = append(e.free[:0], s.free...)
	e.seq = s.seq
	e.live = s.live
	e.stopped = s.stopped
}
