package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent is one event of the naive reference model used to pin the
// arena queue's firing order: a straight slice sorted by (at, seq).
type refEvent struct {
	at  time.Duration
	seq int
	id  int
}

// TestRandomInterleavingsMatchReferenceOrder drives many random
// Schedule/After/Cancel interleavings through the arena engine and an
// obviously-correct reference model, requiring the exact same firing
// order. The reference reproduces the pre-arena semantics — events fire
// in (time, scheduling-order) order, cancelled events never fire — so
// this is the golden-sequence property test guarding the rewrite.
func TestRandomInterleavingsMatchReferenceOrder(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		e := NewEngine()

		var ref []refEvent
		var handles []Handle
		var ids []int
		seq := 0
		fired := []int{}

		ops := 5 + rng.Intn(60)
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(4); {
			case k <= 1: // Schedule at an absolute time (possibly tying)
				at := time.Duration(rng.Intn(50)) * time.Millisecond
				id := 1000*trial + op
				h, err := e.Schedule(at, func() { fired = append(fired, id) })
				if err != nil {
					t.Fatalf("trial %d: Schedule: %v", trial, err)
				}
				seq++
				ref = append(ref, refEvent{at: at, seq: seq, id: id})
				handles = append(handles, h)
				ids = append(ids, id)
			case k == 2: // After with a random delay
				d := time.Duration(rng.Intn(50)) * time.Millisecond
				id := 1000*trial + op
				h := e.After(d, func() { fired = append(fired, id) })
				seq++
				ref = append(ref, refEvent{at: e.Now() + d, seq: seq, id: id})
				handles = append(handles, h)
				ids = append(ids, id)
			default: // Cancel a random prior handle (may already be gone)
				if len(handles) == 0 {
					continue
				}
				pick := rng.Intn(len(handles))
				cancelled := e.Cancel(handles[pick])
				inRef := false
				for i, r := range ref {
					if r.id == ids[pick] {
						ref = append(ref[:i], ref[i+1:]...)
						inRef = true
						break
					}
				}
				if cancelled != inRef {
					t.Fatalf("trial %d: Cancel reported %v, reference pending %v", trial, cancelled, inRef)
				}
			}
		}

		if e.Len() != len(ref) {
			t.Fatalf("trial %d: Len = %d, reference has %d pending", trial, e.Len(), len(ref))
		}
		e.Run()

		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].at != ref[j].at {
				return ref[i].at < ref[j].at
			}
			return ref[i].seq < ref[j].seq
		})
		if len(fired) != len(ref) {
			t.Fatalf("trial %d: fired %d events, reference expects %d", trial, len(fired), len(ref))
		}
		for i, r := range ref {
			if fired[i] != r.id {
				t.Fatalf("trial %d: firing order diverges at %d: got id %d, want %d", trial, i, fired[i], r.id)
			}
		}
	}
}

// TestCancelReleasesSlotImmediately is the leak-oriented regression test
// for the Cancel bugfix: cancelling must release the callback and return
// the arena slot to the free list right away, not when the stale heap
// entry is lazily popped.
func TestCancelReleasesSlotImmediately(t *testing.T) {
	e := NewEngine()
	h := e.After(time.Hour, func() { t.Fatal("cancelled event fired") })
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1", e.Len())
	}
	if !e.Cancel(h) {
		t.Fatal("Cancel reported not pending")
	}
	if e.Len() != 0 {
		t.Fatalf("Len after cancel = %d, want 0 (slot still counted as live)", e.Len())
	}
	// The callback must be dropped immediately — a pinned closure would
	// still be reachable from the arena.
	if fn := e.slots[h.slot-1].fn; fn != nil {
		t.Fatal("cancelled event's fn still pinned in the arena")
	}
	if len(e.free) != 1 || e.free[0] != h.slot-1 {
		t.Fatalf("free list = %v, want the cancelled slot %d", e.free, h.slot-1)
	}
	// The next Schedule must reuse the freed slot (pool reuse), and the
	// bumped generation must orphan the old handle.
	h2 := e.After(time.Minute, func() {})
	if h2.slot != h.slot {
		t.Fatalf("slot not reused: got %d, want %d", h2.slot, h.slot)
	}
	if h2.gen == h.gen {
		t.Fatal("generation not bumped on release")
	}
	if e.Cancel(h) {
		t.Fatal("stale handle cancelled the reused slot")
	}
	if !e.Cancel(h2) {
		t.Fatal("fresh handle should cancel")
	}
}

// TestArenaStaysCompactUnderChurn checks that steady Schedule/Cancel/fire
// churn recycles slots instead of growing the arena without bound.
func TestArenaStaysCompactUnderChurn(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	var pending []Handle
	for i := 0; i < 10000; i++ {
		if len(pending) < 16 {
			pending = append(pending, e.After(time.Duration(rng.Intn(100))*time.Millisecond, func() {}))
			continue
		}
		if rng.Intn(2) == 0 {
			pick := rng.Intn(len(pending))
			e.Cancel(pending[pick]) // may already have fired via Step
			pending = append(pending[:pick], pending[pick+1:]...)
		} else {
			e.Step()
			pending = pending[:0] // fired or cancelled below the mark soon enough
			e.Run()
		}
	}
	// At most the high-water mark of concurrently pending events — far
	// below the 10000 events scheduled.
	if len(e.slots) > 64 {
		t.Fatalf("arena grew to %d slots under churn; free-list reuse broken", len(e.slots))
	}
}

// TestTickerNoDriftLargeCounts runs a ticker for a large number of ticks
// and requires every invocation to land exactly on a period multiple —
// re-arming from the callback must not accumulate rounding or ordering
// drift.
func TestTickerNoDriftLargeCounts(t *testing.T) {
	e := NewEngine()
	const period = 10 * time.Millisecond
	const ticks = 500000
	count := 0
	var tk *Ticker
	tk, err := NewTicker(e, period, func() {
		count++
		if want := time.Duration(count) * period; e.Now() != want {
			t.Fatalf("tick %d fired at %v, want %v", count, e.Now(), want)
		}
		if count == ticks {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if count != ticks {
		t.Fatalf("ran %d ticks, want %d", count, ticks)
	}
}
