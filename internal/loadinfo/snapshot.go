package loadinfo

import "time"

// This file holds the board's snapshot/restore support for cluster
// forking. A snapshot deep-copies every mutable vector — the SoA entry
// storage, per-partition candidates and aggregates, both indexed heaps,
// and the cached sums — so a restore rewinds the board in place,
// truncating any slots and partitions added (runtime joins) after the
// snapshot was taken. The status versions each slot was read at are not
// part of it: a restored board re-reads every slot at its next refresh.

// Snapshot is a deep copy of a board's mutable state.
type Snapshot struct {
	n    int
	live int

	nodeID     []int32
	jobs       []int32
	slots      []int32
	flags      []uint8
	idleMB     []float64
	userMB     []float64
	faultRate  []float64
	ioActive   []int32
	cacheAvail []float64
	updatedAt  []time.Duration

	destBest         []int32
	resvBest         []int32
	idleUpMB         []float64
	idleUnreservedMB []float64
	downCount        []int32
	pressuredCount   []int32

	destItems, destPos []int32
	resvItems, resvPos []int32

	sumsDirty         bool
	sumIdleUp         float64
	sumIdleUnreserved float64
	sumUserMB         float64

	selects int64
	scanned int64
}

// Snapshot captures the board's complete mutable state. The dense-select
// setting (SetDenseSelect) is not state: Restore leaves it as it is.
func (b *Board) Snapshot() *Snapshot {
	s := &Snapshot{
		n:    b.n,
		live: b.live,

		nodeID:     append([]int32(nil), b.nodeID...),
		jobs:       append([]int32(nil), b.jobs...),
		slots:      append([]int32(nil), b.slots...),
		flags:      append([]uint8(nil), b.flags...),
		idleMB:     append([]float64(nil), b.idleMB...),
		userMB:     append([]float64(nil), b.userMB...),
		faultRate:  append([]float64(nil), b.faultRate...),
		ioActive:   append([]int32(nil), b.ioActive...),
		cacheAvail: append([]float64(nil), b.cacheAvail...),
		updatedAt:  append([]time.Duration(nil), b.updatedAt...),

		destBest:         append([]int32(nil), b.destBest...),
		resvBest:         append([]int32(nil), b.resvBest...),
		idleUpMB:         append([]float64(nil), b.idleUpMB...),
		idleUnreservedMB: append([]float64(nil), b.idleUnreservedMB...),
		downCount:        append([]int32(nil), b.downCount...),
		pressuredCount:   append([]int32(nil), b.pressuredCount...),

		destItems: append([]int32(nil), b.destHeap.items...),
		destPos:   append([]int32(nil), b.destHeap.pos...),
		resvItems: append([]int32(nil), b.resvHeap.items...),
		resvPos:   append([]int32(nil), b.resvHeap.pos...),

		sumsDirty:         b.sumsDirty,
		sumIdleUp:         b.sumIdleUp,
		sumIdleUnreserved: b.sumIdleUnreserved,
		sumUserMB:         b.sumUserMB,

		selects: b.selects,
		scanned: b.scanned,
	}
	return s
}

// Restore rewinds the board to a prior Snapshot, reusing live capacity.
// Nodes and partitions added after the snapshot vanish (the trailing
// storage is truncated by the copy); retired tombstones revert with
// everything else.
func (b *Board) Restore(s *Snapshot) {
	b.n = s.n
	b.live = s.live

	b.nodeID = append(b.nodeID[:0], s.nodeID...)
	b.jobs = append(b.jobs[:0], s.jobs...)
	b.slots = append(b.slots[:0], s.slots...)
	b.flags = append(b.flags[:0], s.flags...)
	b.idleMB = append(b.idleMB[:0], s.idleMB...)
	b.userMB = append(b.userMB[:0], s.userMB...)
	b.faultRate = append(b.faultRate[:0], s.faultRate...)
	b.ioActive = append(b.ioActive[:0], s.ioActive...)
	b.cacheAvail = append(b.cacheAvail[:0], s.cacheAvail...)
	b.updatedAt = append(b.updatedAt[:0], s.updatedAt...)
	// Every slot is re-read at the next refresh: the versions it was read
	// at belong to the abandoned continuation.
	b.seen = b.seen[:0]
	for range s.nodeID {
		b.seen = append(b.seen, readMark{version: unseen})
	}

	b.destBest = append(b.destBest[:0], s.destBest...)
	b.resvBest = append(b.resvBest[:0], s.resvBest...)
	b.idleUpMB = append(b.idleUpMB[:0], s.idleUpMB...)
	b.idleUnreservedMB = append(b.idleUnreservedMB[:0], s.idleUnreservedMB...)
	b.downCount = append(b.downCount[:0], s.downCount...)
	b.pressuredCount = append(b.pressuredCount[:0], s.pressuredCount...)

	b.destHeap.items = append(b.destHeap.items[:0], s.destItems...)
	b.destHeap.pos = append(b.destHeap.pos[:0], s.destPos...)
	b.resvHeap.items = append(b.resvHeap.items[:0], s.resvItems...)
	b.resvHeap.pos = append(b.resvHeap.pos[:0], s.resvPos...)

	b.sumsDirty = s.sumsDirty
	b.sumIdleUp = s.sumIdleUp
	b.sumIdleUnreserved = s.sumIdleUnreserved
	b.sumUserMB = s.sumUserMB

	b.selects = s.selects
	b.scanned = s.scanned

	// Scratch state is empty between operations by invariant; re-size the
	// dirty-partition mask to the restored partition count.
	nparts := len(b.destBest)
	words := (nparts + 63) / 64
	if cap(b.dirtyParts) < words {
		b.dirtyParts = make([]uint64, words)
	} else {
		b.dirtyParts = b.dirtyParts[:words]
		for i := range b.dirtyParts {
			b.dirtyParts[i] = 0
		}
	}
	b.popped = b.popped[:0]
}
