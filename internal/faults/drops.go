package faults

// This file holds the exchange-drop dimension. Each node draws one
// Float64 from its private stream per control period and drops its
// load-information exchange when the draw falls below DropRate; a
// partitioned domain loses every exchange outright without a draw (the
// wire is gone, not lossy), and a retired node neither draws nor drops.
//
// The draws are taken in runs: drawRun reads a node's stream ahead up to
// its next drop, and the periods before the run's last answer keep their
// exchange. Each run is filed on a calendar under the period its last
// answer falls in, so a control period visits only the runs that end in it
// and the members of partitioned domains, not every node. The answers are
// the same as drawing once per node per period; the streams themselves
// run ahead of the periods, and a snapshot copies them with the runs.

// calendarSlots is the calendar's length. A run answers at most maxDropRun
// periods, so every run on the calendar ends within that many periods of
// the next one, and one slot per period of that span never holds two
// different periods' runs.
const calendarSlots = maxDropRun

// dropRun is one node's drop decisions drawn ahead: n periods, of which the
// last is a drop when drop is set and all others keep their exchange; n is
// zero until the node's first run is drawn. While queued, the run sits on
// the calendar slot of end, the period of its last answer, linked to the
// other runs there through prev and next (-1 at either end of the chain).
// Off the calendar (a partition or retirement froze it) left counts the
// periods it has still to answer.
type dropRun struct {
	end        uint64
	prev, next int32
	n, left    uint8
	drop       bool
	queued     bool
}

// Drops answers one control period: it returns the set of nodes whose
// load-information exchange is lost this period, as a bitmask (bit id&63
// of word id>>6), and its size. The set is the injector's own and stays
// valid until the next call.
func (in *Injector) Drops() (set []uint64, n int) {
	for _, id := range in.droppedIDs {
		in.dropped[id>>6] &^= 1 << uint(id&63)
	}
	in.droppedIDs = in.droppedIDs[:0]
	p := in.period
	in.period++ // runs drawn below answer from the next period on
	if in.partitions > 0 {
		for d, on := range in.partitioned {
			if !on {
				continue
			}
			for id := d; id < len(in.runs); id += in.plan.Domains {
				if !in.retired[id] {
					in.markDropped(id)
				}
			}
		}
	}
	s := p % calendarSlots
	id := in.calendar[s]
	in.calendar[s] = -1
	for id >= 0 {
		r := &in.runs[id]
		next := r.next
		r.queued = false
		if r.drop {
			in.markDropped(int(id))
		}
		in.startRun(int(id))
		id = next
	}
	return in.dropped, len(in.droppedIDs)
}

// Dropped reports whether nodeID's exchange was lost in the last period
// Drops answered.
func (in *Injector) Dropped(nodeID int) bool {
	return nodeID >= 0 && nodeID>>6 < len(in.dropped) && in.dropped[nodeID>>6]&(1<<uint(nodeID&63)) != 0
}

func (in *Injector) markDropped(id int) {
	in.dropped[id>>6] |= 1 << uint(id&63)
	in.droppedIDs = append(in.droppedIDs, int32(id))
}

// startRun draws node id's next run, answering from the next period on,
// and files it on the calendar.
func (in *Injector) startRun(id int) {
	r := &in.runs[id]
	r.n, r.drop = drawRun(&in.dropSrc[id], in.plan.DropRate)
	r.left = r.n
	in.enqueue(id)
}

// enqueue files node id's run on the calendar under the period its last
// answer falls in: left periods from the next one on.
func (in *Injector) enqueue(id int) {
	r := &in.runs[id]
	r.end = in.period + uint64(r.left) - 1
	s := r.end % calendarSlots
	r.prev, r.next = -1, in.calendar[s]
	if r.next >= 0 {
		in.runs[r.next].prev = int32(id)
	}
	in.calendar[s] = int32(id)
	r.queued = true
}

// freeze takes node id's run off the calendar, keeping the periods it has
// still to answer.
func (in *Injector) freeze(id int) {
	r := &in.runs[id]
	if !r.queued {
		return
	}
	r.left = uint8(r.end - in.period + 1)
	if r.prev >= 0 {
		in.runs[r.prev].next = r.next
	} else {
		in.calendar[r.end%calendarSlots] = r.next
	}
	if r.next >= 0 {
		in.runs[r.next].prev = r.prev
	}
	r.queued = false
}

// thaw puts node id's frozen run back on the calendar from the next period
// on, or draws its first run if it has none yet. A retired node stays off.
func (in *Injector) thaw(id int) {
	r := &in.runs[id]
	if in.plan.DropRate <= 0 || in.retired[id] || r.queued {
		return
	}
	if r.n == 0 {
		in.startRun(id)
		return
	}
	in.enqueue(id)
}

// maxDropRun caps how many periods one run reads ahead, so a tiny drop
// rate cannot spin the draw loop.
const maxDropRun = 64

// drawRun draws the Float64s of one run: up to and including the first
// below rate, and at most maxDropRun of them. It reports the run's length
// and whether its last period drops.
func drawRun(src *stream, rate float64) (n uint8, drop bool) {
	for n < maxDropRun {
		n++
		if nextFloat64(src) < rate {
			return n, true
		}
	}
	return n, false
}

// nextFloat64 returns the value rand.(*Rand).Float64 would return on src:
// an Int63 so close to 1<<63 that the division rounds to 1.0 is redrawn,
// inside the same period.
func nextFloat64(src *stream) float64 {
	for {
		if f := float64(src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
