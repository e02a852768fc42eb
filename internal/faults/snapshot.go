package faults

// This file holds the injector's snapshot/restore support for cluster
// forking. Every fault stream's state is a value (see stream.go), so a
// snapshot copies each stream (about 4.9 KB), the drop runs drawn ahead
// with their calendar and period, the last drop set, and the ownership,
// retirement and partition state; a restore copies them all back into the
// live slices without allocating, and truncates the per-node slices so
// workstations that joined after the snapshot vanish. The pending fault
// timers themselves live in the engine's event queue and are restored by
// the engine snapshot.

// Snapshot captures the injector's mutable state.
type Snapshot struct {
	crash  []stream
	drop   []stream
	mig    stream
	domain []stream
	part   []stream

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
		crash:       copyStreams(in.crashSrc),
		drop:        append([]stream(nil), in.dropSrc...),
		mig:         *in.migSrc,
		domain:      copyStreams(in.domainSrc),
		part:        copyStreams(in.partSrc),
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

// copyStreams copies the streams srcs point at.
func copyStreams(srcs []*stream) []stream {
	out := make([]stream, len(srcs))
	for i, src := range srcs {
		out[i] = *src
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
		*src = s.crash[i]
	}
	in.dropSrc = append(in.dropSrc[:0], s.drop...)
	*in.migSrc = s.mig
	for d, src := range in.domainSrc {
		*src = s.domain[d]
	}
	for d, src := range in.partSrc {
		*src = s.part[d]
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
