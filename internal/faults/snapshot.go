package faults

// This file holds the injector's snapshot/restore support for cluster
// forking. Every fault stream is backed by a counting source, so a
// snapshot is just each stream's draw count (for a drop stream, the count
// its consumer has reached, not the run drawn ahead of it) plus the
// ownership, retirement and partition state; a restore rewinds each stream
// to its recorded position (reseed + fast-forward) and truncates the
// per-node slices so workstations that joined after the snapshot vanish.
// The pending fault timers themselves live in the engine's event queue and
// are restored by the engine snapshot.

// Snapshot captures the injector's mutable state.
type Snapshot struct {
	crashDraws  []uint64
	dropDraws   []uint64
	migDraws    uint64
	domainDraws []uint64
	partDraws   []uint64

	downBy      []downOwner
	retired     []bool
	partitioned []bool
	started     bool
}

// Snapshot captures the mutable state.
func (in *Injector) Snapshot() *Snapshot {
	s := &Snapshot{
		crashDraws:  make([]uint64, len(in.crashSrc)),
		dropDraws:   make([]uint64, len(in.dropSrc)),
		migDraws:    in.migSrc.Draws(),
		downBy:      append([]downOwner(nil), in.downBy...),
		retired:     append([]bool(nil), in.retired...),
		partitioned: append([]bool(nil), in.partitioned...),
		started:     in.started,
	}
	for i, src := range in.crashSrc {
		s.crashDraws[i] = src.Draws()
	}
	for i := range in.dropSrc {
		s.dropDraws[i] = in.dropPosition(i)
	}
	if len(in.domainSrc) > 0 {
		s.domainDraws = make([]uint64, len(in.domainSrc))
		s.partDraws = make([]uint64, len(in.partSrc))
		for d := range in.domainSrc {
			s.domainDraws[d] = in.domainSrc[d].Draws()
			s.partDraws[d] = in.partSrc[d].Draws()
		}
	}
	return s
}

// Restore rewinds the injector to a prior Snapshot: each stream returns to
// its recorded position and per-node state added by runtime joins after
// the snapshot is truncated away. Domain count is fixed at construction.
func (in *Injector) Restore(s *Snapshot) {
	n := len(s.crashDraws)
	in.crashRNG = in.crashRNG[:n]
	in.crashSrc = in.crashSrc[:n]
	in.dropSrc = in.dropSrc[:n]
	in.runs = in.runs[:n]
	for i := 0; i < n; i++ {
		in.crashSrc[i].Restore(s.crashDraws[i])
		in.dropSrc[i].Restore(s.dropDraws[i])
	}
	in.migSrc.Restore(s.migDraws)
	for d := range s.domainDraws {
		in.domainSrc[d].Restore(s.domainDraws[d])
		in.partSrc[d].Restore(s.partDraws[d])
	}
	in.downBy = append(in.downBy[:0], s.downBy...)
	in.retired = append(in.retired[:0], s.retired...)
	for d, on := range s.partitioned {
		in.markPartitioned(d, on)
	}
	in.restoreDrops()
	in.started = s.started
}
