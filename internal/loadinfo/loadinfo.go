// Package loadinfo implements the globally shared load index of the
// paper's Section 3.3.1: each workstation keeps CPU, memory, and I/O load
// status for every other node, collected and distributed periodically. The
// Board is a point-in-time snapshot refreshed on that period, so policies
// act on slightly stale information, exactly as in a real cluster.
//
// Internally the board is sharded into fixed-size partitions over
// struct-of-arrays storage. Each partition maintains its best destination
// and reservation candidates plus observability aggregates, refreshed
// incrementally (only partitions whose entries actually changed are
// recomputed), and two indexed heaps over the partition candidates answer
// BestDestination and ReservationCandidate in O(log partitions) instead of
// O(nodes). Selection is a pure argmax under the total order (idle memory
// desc, jobs asc, index asc), so the heap path returns byte-identical
// answers to the dense scan — SetDenseSelect(true) forces the dense scan,
// and the equivalence suite runs every configuration both ways. The dense
// cluster-wide sums (AccumulatedIdleMB, MeanUserMB) keep their exact
// historical iteration order — float addition is not associative — and are
// cached behind a dirty flag so repeated queries between mutations cost
// O(1).
package loadinfo

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"vrcluster/internal/node"
)

// Entry is one node's published load status.
type Entry struct {
	NodeID    int
	Jobs      int
	Slots     int // the node's CPU threshold
	IdleMB    float64
	UserMB    float64
	Pressured bool
	Reserved  bool
	Down      bool
	Draining  bool
	Removed   bool
	HasSlot   bool
	FaultRate float64
	// IOActiveJobs and CacheAvailability are the node's I/O load status.
	IOActiveJobs      int
	CacheAvailability float64
	UpdatedAt         time.Duration
}

// unseen marks a slot the next refresh must re-read whatever its node's
// status version; no node reports it.
const unseen = ^uint64(0)

// readMark records what a slot was last refreshed from: the node, and its
// status version (node.StatusVersion) at the time, or unseen once the board
// itself has written the slot since.
type readMark struct {
	version uint64
	node    *node.Node
}

// DefaultPeriod is the load collection/distribution interval.
const DefaultPeriod = time.Second

// PartitionSize is the number of nodes per board partition. 64 keeps a
// partition's vectors within a few cache lines while bounding the heap to
// N/64 items (157 partitions at 10k nodes).
const PartitionSize = 64

// Entry flag bits packed into the board's per-node flags byte.
const (
	flagPressured uint8 = 1 << iota
	flagReserved
	flagDown
	flagHasSlot
	flagDraining
	flagRemoved
)

// flagIneligible masks out every state that disqualifies a node from both
// selection kinds: reserved, crashed, draining toward removal, or retired.
const flagIneligible = flagReserved | flagDown | flagDraining | flagRemoved

// Board holds the latest snapshot of every node's status.
type Board struct {
	period time.Duration
	n      int
	live   int // tracked nodes not yet retired (MeanUserMB divisor)

	// Struct-of-arrays entry storage: the selection hot path touches only
	// idleMB, jobs, flags, and nodeID, so those stay dense and separate
	// from the cold observability fields.
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

	// seen[i] is what slot i was last refreshed from; a refresh re-reads
	// only the slots whose node is another or has moved past it.
	seen []readMark

	// Per-partition selection candidates (entry index, -1 = none) and
	// observability aggregates, recomputed only for dirty partitions.
	destBest         []int32
	resvBest         []int32
	idleUpMB         []float64
	idleUnreservedMB []float64
	downCount        []int32
	pressuredCount   []int32

	destHeap pheap
	resvHeap pheap

	// denseSelect forces the O(n) scans (the equivalence-suite fallback).
	denseSelect bool

	// Cluster-wide sums cached in the dense scan's exact addition order
	// (float addition is not associative); sumsDirty marks them stale.
	sumsDirty         bool
	sumIdleUp         float64
	sumIdleUnreserved float64
	sumUserMB         float64

	dirtyParts []uint64 // scratch bitmask of partitions touched by a refresh
	popped     []int32  // scratch for partitions popped during one query

	selects int64 // selection queries answered
	scanned int64 // entries examined answering them
}

// NewBoard sizes a board for n nodes refreshed every period.
func NewBoard(n int, period time.Duration) (*Board, error) {
	if n <= 0 {
		return nil, fmt.Errorf("loadinfo: node count %d must be positive", n)
	}
	if period <= 0 {
		return nil, fmt.Errorf("loadinfo: period %v must be positive", period)
	}
	nparts := (n + PartitionSize - 1) / PartitionSize
	b := &Board{
		period:     period,
		n:          n,
		live:       n,
		nodeID:     make([]int32, n),
		jobs:       make([]int32, n),
		slots:      make([]int32, n),
		flags:      make([]uint8, n),
		idleMB:     make([]float64, n),
		userMB:     make([]float64, n),
		faultRate:  make([]float64, n),
		ioActive:   make([]int32, n),
		cacheAvail: make([]float64, n),
		updatedAt:  make([]time.Duration, n),
		seen:       make([]readMark, n),

		destBest:         make([]int32, nparts),
		resvBest:         make([]int32, nparts),
		idleUpMB:         make([]float64, nparts),
		idleUnreservedMB: make([]float64, nparts),
		downCount:        make([]int32, nparts),
		pressuredCount:   make([]int32, nparts),

		sumsDirty:  true,
		dirtyParts: make([]uint64, (nparts+63)/64),
	}
	for i := range b.seen {
		b.seen[i].version = unseen
	}
	for p := 0; p < nparts; p++ {
		b.recomputeAggregates(int32(p))
	}
	b.destHeap.init(nparts)
	b.resvHeap.init(nparts)
	b.heapify(&b.destHeap, true)
	b.heapify(&b.resvHeap, false)
	return b, nil
}

// Period reports the refresh interval.
func (b *Board) Period() time.Duration { return b.period }

// Len reports the number of tracked nodes.
func (b *Board) Len() int { return b.n }

// Partitions reports the number of fixed-size shards the board maintains.
func (b *Board) Partitions() int { return len(b.destBest) }

// SetDenseSelect forces BestDestination and ReservationCandidate onto the
// dense O(n) scans instead of the partition heaps. The two paths are
// equivalent by construction (selection is a pure argmax under a total
// order); this knob exists so the equivalence suite can prove exactly that
// on every configuration.
func (b *Board) SetDenseSelect(dense bool) { b.denseSelect = dense }

// SelectStats reports how many selection queries the board has answered
// and how many entries were examined answering them. The ratio is the
// empirical per-decision cost the scaling sweep tracks.
func (b *Board) SelectStats() (selects, scanned int64) { return b.selects, b.scanned }

// Refresh snapshots every node's current status at virtual time now.
func (b *Board) Refresh(now time.Duration, nodes []*node.Node) error {
	return b.RefreshWith(now, nodes, nil)
}

// RefreshWith snapshots node statuses at virtual time now, skipping the
// nodes whose ID bit is set in dropped (bit id&63 of word id>>6; nil drops
// none): their load-information exchange was lost on the wire, so the
// board keeps serving the previous (stale) vector — the staleness failure
// mode a fault plan injects. A node-count mismatch returns an error before
// any entry is touched; silently mis-indexing a resized cluster would
// publish one node's load under another's ID.
//
// A slot last read from the same *node.Node, whose status version
// (node.StatusVersion) has not moved since, and which the board has not
// written since (NotePlacement, Publish, Retire, AddNode, Restore),
// already holds what LoadStatus would return: it only takes the new
// timestamp. So a period reads the status of the workstations that
// changed, not of every one.
func (b *Board) RefreshWith(now time.Duration, nodes []*node.Node, dropped []uint64) error {
	if len(nodes) != b.n {
		return fmt.Errorf("loadinfo: %d nodes, board sized for %d", len(nodes), b.n)
	}
	for i, n := range nodes {
		if id := n.ID(); id>>6 < len(dropped) && dropped[id>>6]&(1<<uint(id&63)) != 0 {
			continue
		}
		mark := readMark{n.StatusVersion(), n}
		if mark == b.seen[i] {
			b.updatedAt[i] = now
			continue
		}
		b.seen[i] = mark
		st := n.LoadStatus()
		fl := packFlags(st)
		changed := b.jobs[i] != int32(st.Jobs) ||
			b.flags[i] != fl ||
			b.idleMB[i] != st.IdleMB ||
			b.userMB[i] != st.UserMB ||
			b.slots[i] != int32(st.Slots) ||
			b.nodeID[i] != int32(st.NodeID)
		b.nodeID[i] = int32(st.NodeID)
		b.jobs[i] = int32(st.Jobs)
		b.slots[i] = int32(st.Slots)
		b.flags[i] = fl
		b.idleMB[i] = st.IdleMB
		b.userMB[i] = st.UserMB
		b.faultRate[i] = st.FaultRate
		b.ioActive[i] = int32(st.IOActiveJobs)
		b.cacheAvail[i] = st.CacheAvailability
		b.updatedAt[i] = now
		if changed {
			p := i / PartitionSize
			b.dirtyParts[p>>6] |= 1 << uint(p&63)
			b.sumsDirty = true
		}
	}
	for wi, w := range b.dirtyParts {
		for w != 0 {
			p := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			b.recomputePartition(p)
		}
		b.dirtyParts[wi] = 0
	}
	return nil
}

// Publish overwrites the snapshot slot i with e wholesale — the ingestion
// path for load vectors that arrive individually (a gossiped exchange, a
// test-constructed board) rather than via a cluster-wide refresh.
func (b *Board) Publish(i int, e Entry) error {
	if i < 0 || i >= b.n {
		return fmt.Errorf("loadinfo: node %d out of range", i)
	}
	var fl uint8
	if e.Pressured {
		fl |= flagPressured
	}
	if e.Reserved {
		fl |= flagReserved
	}
	if e.Down {
		fl |= flagDown
	}
	if e.HasSlot {
		fl |= flagHasSlot
	}
	if e.Draining {
		fl |= flagDraining
	}
	if e.Removed {
		fl |= flagRemoved
	}
	b.nodeID[i] = int32(e.NodeID)
	b.jobs[i] = int32(e.Jobs)
	b.slots[i] = int32(e.Slots)
	b.flags[i] = fl
	b.idleMB[i] = e.IdleMB
	b.userMB[i] = e.UserMB
	b.faultRate[i] = e.FaultRate
	b.ioActive[i] = int32(e.IOActiveJobs)
	b.cacheAvail[i] = e.CacheAvailability
	b.updatedAt[i] = e.UpdatedAt
	b.seen[i].version = unseen
	b.sumsDirty = true
	b.recomputePartition(int32(i / PartitionSize))
	return nil
}

// AddNode grows the board by one slot at the next index, publishing e as
// its initial status, and returns the new entry index. The struct-of-arrays
// storage extends in place; when the new slot starts a fresh partition, the
// partition is admitted into both selection heaps incrementally, so a
// runtime join costs O(partition + log partitions) rather than a rebuild.
func (b *Board) AddNode(e Entry) (int, error) {
	i := b.n
	b.n++
	b.live++
	b.nodeID = append(b.nodeID, int32(i))
	b.jobs = append(b.jobs, 0)
	b.slots = append(b.slots, 0)
	b.flags = append(b.flags, flagRemoved) // inert until Publish below
	b.idleMB = append(b.idleMB, 0)
	b.userMB = append(b.userMB, 0)
	b.faultRate = append(b.faultRate, 0)
	b.ioActive = append(b.ioActive, 0)
	b.cacheAvail = append(b.cacheAvail, 0)
	b.updatedAt = append(b.updatedAt, 0)
	b.seen = append(b.seen, readMark{version: unseen})
	if p := i / PartitionSize; p == len(b.destBest) {
		b.destBest = append(b.destBest, -1)
		b.resvBest = append(b.resvBest, -1)
		b.idleUpMB = append(b.idleUpMB, 0)
		b.idleUnreservedMB = append(b.idleUnreservedMB, 0)
		b.downCount = append(b.downCount, 0)
		b.pressuredCount = append(b.pressuredCount, 0)
		if p>>6 >= len(b.dirtyParts) {
			b.dirtyParts = append(b.dirtyParts, 0)
		}
		b.admitPartition(&b.destHeap, true, int32(p))
		b.admitPartition(&b.resvHeap, false, int32(p))
	}
	if err := b.Publish(i, e); err != nil {
		return -1, err
	}
	return i, nil
}

// Retire marks slot id's workstation as permanently removed: it never again
// qualifies for selection, contributes to no sums, and its board entry is a
// tombstone so every other node keeps its stable index.
func (b *Board) Retire(id int) error {
	if id < 0 || id >= b.n {
		return fmt.Errorf("loadinfo: node %d out of range", id)
	}
	if b.flags[id]&flagRemoved != 0 {
		return fmt.Errorf("loadinfo: node %d already retired", id)
	}
	b.flags[id] |= flagRemoved
	b.flags[id] &^= flagHasSlot
	b.seen[id].version = unseen
	b.live--
	b.sumsDirty = true
	b.recomputePartition(int32(id / PartitionSize))
	return nil
}

// packFlags folds a node's boolean status into the board's flags byte.
func packFlags(st node.LoadStatus) uint8 {
	var fl uint8
	if st.Pressured {
		fl |= flagPressured
	}
	if st.Reserved {
		fl |= flagReserved
	}
	if st.Down {
		fl |= flagDown
	}
	if st.HasSlot {
		fl |= flagHasSlot
	}
	if st.Draining {
		fl |= flagDraining
	}
	if st.Removed {
		fl |= flagRemoved
	}
	return fl
}

// entryAt assembles the Entry snapshot for slot i.
func (b *Board) entryAt(i int) Entry {
	fl := b.flags[i]
	return Entry{
		NodeID:            int(b.nodeID[i]),
		Jobs:              int(b.jobs[i]),
		Slots:             int(b.slots[i]),
		IdleMB:            b.idleMB[i],
		UserMB:            b.userMB[i],
		Pressured:         fl&flagPressured != 0,
		Reserved:          fl&flagReserved != 0,
		Down:              fl&flagDown != 0,
		Draining:          fl&flagDraining != 0,
		Removed:           fl&flagRemoved != 0,
		HasSlot:           fl&flagHasSlot != 0,
		FaultRate:         b.faultRate[i],
		IOActiveJobs:      int(b.ioActive[i]),
		CacheAvailability: b.cacheAvail[i],
		UpdatedAt:         b.updatedAt[i],
	}
}

// Admits reports whether slot id's entry is unreserved, has a free job
// slot, is not memory-pressured and shows at least needMB of idle memory —
// G-Loadsharing's test for keeping a submission on its home workstation —
// reading the four fields in place rather than assembling an Entry. An
// out-of-range id does not qualify.
func (b *Board) Admits(id int, needMB float64) bool {
	if id < 0 || id >= b.n {
		return false
	}
	return b.flags[id]&(flagReserved|flagHasSlot|flagPressured) == flagHasSlot && b.idleMB[id] >= needMB
}

// Entry returns the snapshot for one node.
func (b *Board) Entry(id int) (Entry, error) {
	if id < 0 || id >= b.n {
		return Entry{}, fmt.Errorf("loadinfo: node %d out of range", id)
	}
	return b.entryAt(id), nil
}

// Entries returns a copy of all snapshots.
func (b *Board) Entries() []Entry {
	out := make([]Entry, b.n)
	for i := range out {
		out[i] = b.entryAt(i)
	}
	return out
}

// ForEach visits every entry in node-index order without allocating,
// assembling each snapshot on the stack. Return false to stop early.
func (b *Board) ForEach(fn func(Entry) bool) {
	for i := 0; i < b.n; i++ {
		if !fn(b.entryAt(i)) {
			return
		}
	}
}

// AccumulatedIdleMB sums idle memory across nodes. When excludeReserved is
// set, reserved workstations do not contribute — their memory is already
// committed to special service. Crashed workstations never contribute:
// their memory is unreachable, however idle it looks.
func (b *Board) AccumulatedIdleMB(excludeReserved bool) float64 {
	if b.sumsDirty {
		b.recomputeSums()
	}
	if excludeReserved {
		return b.sumIdleUnreserved
	}
	return b.sumIdleUp
}

// MeanUserMB reports the average user memory per workstation — the
// threshold the paper compares accumulated idle memory against before
// activating a reconfiguration. Retired workstations are excluded from
// both the sum and the divisor; with no removals the value is bit-identical
// to the fixed-membership board's.
func (b *Board) MeanUserMB() float64 {
	if b.live == 0 {
		return 0
	}
	if b.sumsDirty {
		b.recomputeSums()
	}
	return b.sumUserMB / float64(b.live)
}

// Live reports the number of tracked nodes not yet retired.
func (b *Board) Live() int { return b.live }

// recomputeSums rebuilds the cached cluster-wide sums with one dense pass
// in ascending index order — the same addition order the pre-sharded board
// used, so the cached values are bit-identical to a direct scan. Retired
// workstations contribute nothing; draining workstations keep their user
// memory (the machine is still live) but their idle memory no longer
// counts as reconfigurable capacity — it is leaving the cluster.
func (b *Board) recomputeSums() {
	var up, unreserved, user float64
	for i := 0; i < b.n; i++ {
		fl := b.flags[i]
		if fl&flagRemoved != 0 {
			continue
		}
		user += b.userMB[i]
		if fl&(flagDown|flagDraining) != 0 {
			continue
		}
		up += b.idleMB[i]
		if fl&flagReserved == 0 {
			unreserved += b.idleMB[i]
		}
	}
	b.sumIdleUp, b.sumIdleUnreserved, b.sumUserMB = up, unreserved, user
	b.sumsDirty = false
}

// NotePlacement debits the snapshot entry for a node that has just been
// chosen as a placement target, so that several decisions taken within one
// refresh period do not all pile onto the same workstation. The debit is
// overwritten by the next Refresh.
func (b *Board) NotePlacement(id int, demandMB float64) error {
	if id < 0 || id >= b.n {
		return fmt.Errorf("loadinfo: node %d out of range", id)
	}
	b.jobs[id]++
	b.seen[id].version = unseen
	b.idleMB[id] -= demandMB
	if b.idleMB[id] < 0 {
		b.idleMB[id] = 0
		b.flags[id] |= flagPressured
	}
	if b.jobs[id] < b.slots[id] {
		b.flags[id] |= flagHasSlot
	} else {
		b.flags[id] &^= flagHasSlot
	}
	b.sumsDirty = true
	b.recomputePartition(int32(id / PartitionSize))
	return nil
}

// BestDestination picks a normal load-sharing target for a payload of
// demandMB: an unreserved node with a free slot, no memory pressure, and at
// least demandMB idle memory, preferring the most idle memory and then the
// fewest jobs. exclude skips specific node IDs (e.g. the source). Returns
// false when no node qualifies — the condition under which submissions and
// migrations block.
func (b *Board) BestDestination(demandMB float64, exclude map[int]bool) (int, bool) {
	return b.bestDestination(demandMB, exclude, -1)
}

// BestDestinationExcluding is BestDestination with a single excluded node
// ID (-1 for none) instead of a map — the common hot-path case (skip the
// source), kept allocation-free.
func (b *Board) BestDestinationExcluding(demandMB float64, excludeID int) (int, bool) {
	return b.bestDestination(demandMB, nil, int32(excludeID))
}

func (b *Board) bestDestination(demandMB float64, exclude map[int]bool, excludeID int32) (int, bool) {
	b.selects++
	var best int32
	if b.denseSelect {
		best = b.scanRange(true, 0, b.n, demandMB, exclude, excludeID)
	} else {
		best = b.heapSelect(&b.destHeap, true, demandMB, exclude, excludeID)
	}
	if best < 0 {
		return -1, false
	}
	return int(b.nodeID[best]), true
}

// ReservationCandidate picks the workstation to reserve (the paper's "most
// lightly loaded workstation with largest idle memory space"): the
// unreserved node with the largest idle memory, breaking ties toward fewer
// jobs. At blocking time, the largest-idle nodes are precisely those whose
// idle memory is stranded — slot-capped workstations or fragments too
// small for any submission — so reserving them withholds the least usable
// capacity while accumulating free space the fastest. Returns false when
// every node is reserved or excluded.
func (b *Board) ReservationCandidate(exclude map[int]bool) (int, bool) {
	return b.reservationCandidate(exclude, -1)
}

// ReservationCandidateExcluding is ReservationCandidate with a single
// excluded node ID (-1 for none) instead of a map, kept allocation-free.
func (b *Board) ReservationCandidateExcluding(excludeID int) (int, bool) {
	return b.reservationCandidate(nil, int32(excludeID))
}

func (b *Board) reservationCandidate(exclude map[int]bool, excludeID int32) (int, bool) {
	b.selects++
	var best int32
	if b.denseSelect {
		best = b.scanRange(false, 0, b.n, math.Inf(-1), exclude, excludeID)
	} else {
		best = b.heapSelect(&b.resvHeap, false, math.Inf(-1), exclude, excludeID)
	}
	if best < 0 {
		return -1, false
	}
	return int(b.nodeID[best]), true
}
