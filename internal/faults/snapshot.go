package faults

// This file holds the injector's snapshot/restore support for cluster
// forking. Every fault stream's state is a value (see stream.go). A
// snapshot copies each exchange-drop stream whole (about 4.9 KB) and each
// sparse stream as a few words, plus a copy of its register only once it
// has built one (past its 273rd value); with them it copies the drop runs
// drawn ahead with their calendar and period, the last drop set, and the
// ownership, retirement and partition state. A restore copies them all
// back into the live slices, registers into the live registers, so one
// snapshot can be restored any number of times; once every register it
// needs exists, a restore allocates nothing. It truncates the per-node
// slices so workstations that joined after the snapshot vanish. The
// pending fault timers themselves live in the engine's event queue and
// are restored by the engine snapshot.

// Snapshot captures the injector's mutable state.
type Snapshot struct {
	crash  []sparseStream
	drop   []stream
	mig    sparseStream
	domain []sparseStream
	part   []sparseStream

	runs       []dropRun
	calendar   [calendarSlots]int32
	period     uint64
	dropped    []uint64
	droppedIDs []int32

	downBy      []downOwner
	retired     []bool
	partitioned []bool
	started     bool
}

// Snapshot captures the mutable state.
func (in *Injector) Snapshot() *Snapshot {
	return &Snapshot{
		crash:       saveStreams(in.crashSrc),
		drop:        append([]stream(nil), in.dropSrc...),
		mig:         in.migSrc.save(),
		domain:      saveStreams(in.domainSrc),
		part:        saveStreams(in.partSrc),
		runs:        append([]dropRun(nil), in.runs...),
		calendar:    in.calendar,
		period:      in.period,
		dropped:     append([]uint64(nil), in.dropped...),
		droppedIDs:  append([]int32(nil), in.droppedIDs...),
		downBy:      append([]downOwner(nil), in.downBy...),
		retired:     append([]bool(nil), in.retired...),
		partitioned: append([]bool(nil), in.partitioned...),
		started:     in.started,
	}
}

// saveStreams saves the streams srcs point at.
func saveStreams(srcs []*sparseStream) []sparseStream {
	out := make([]sparseStream, len(srcs))
	for i, src := range srcs {
		out[i] = src.save()
	}
	return out
}

// Restore rewinds the injector to a prior Snapshot: every stream and the
// drop state are copied back, and per-node state added by runtime joins
// after the snapshot is truncated away. Domain count is fixed at
// construction.
func (in *Injector) Restore(s *Snapshot) {
	n := len(s.crash)
	in.crashRNG = in.crashRNG[:n]
	in.crashSrc = in.crashSrc[:n]
	for i, src := range in.crashSrc {
		src.restore(&s.crash[i])
	}
	in.dropSrc = append(in.dropSrc[:0], s.drop...)
	in.migSrc.restore(&s.mig)
	for d, src := range in.domainSrc {
		src.restore(&s.domain[d])
	}
	for d, src := range in.partSrc {
		src.restore(&s.part[d])
	}
	in.runs = append(in.runs[:0], s.runs...)
	in.calendar = s.calendar
	in.period = s.period
	in.dropped = append(in.dropped[:0], s.dropped...)
	in.droppedIDs = append(in.droppedIDs[:0], s.droppedIDs...)
	in.downBy = append(in.downBy[:0], s.downBy...)
	in.retired = append(in.retired[:0], s.retired...)
	for d, on := range s.partitioned {
		in.markPartitioned(d, on)
	}
	in.started = s.started
}
