package memory

import (
	"math"
	"testing"
	"time"
)

// FuzzReplayStall holds the replay cursor to the manager it stands in for.
// From a drawn configuration, remote backing and registry, a drawn chain of
// demand revisions goes through Manager.Update and Replay.Step side by
// side; after every revision the cursor's Total and Pressured must equal
// DemandMB and Pressured, and its Stall, when the draw reads it, must
// equal StallPerCPUSecond, all bit for bit. Demands are drawn from zero,
// decimal megabytes and values some 2^50 and more times larger, so float
// rounding leaves the running total off the demands' sum and a revision to
// zero can take it below zero, where both clamp; user memory sits where
// the totals cross it in both directions. testdata/fuzz holds seeds with
// clamps and crossings.
func FuzzReplayStall(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := draw(data)
		m, err := NewManager(Config{
			CapacityMB:   float64(1 + d.n(1000)),
			UserFraction: float64(1+d.n(16)) / 16,
			FaultService: time.Duration(1+d.n(20000)) * time.Microsecond,
			FaultScale:   float64(d.n(3000)), // zero takes the default
		})
		if err != nil {
			t.Fatal(err)
		}
		if d.n(2) == 1 {
			m.SetRemoteBacking(time.Duration(d.n(5000)) * time.Microsecond)
		}
		mb := func() float64 {
			switch d.n(8) {
			case 0:
				return 0
			case 1:
				return math.Ldexp(float64(1+d.n(1000)), 50+d.n(20))
			}
			return float64(d.n(1<<16)) / 100
		}
		demands := make([]float64, 1+d.n(6))
		for id := range demands {
			demands[id] = mb()
			if err := m.Register(id, demands[id]); err != nil {
				t.Fatal(err)
			}
		}
		r := m.Replay()
		check := func(step int, stall bool) {
			t.Helper()
			if got, want := r.Total(), m.DemandMB(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: replay total %v, manager %v", step, got, want)
			}
			if got, want := r.Pressured(), m.Pressured(); got != want {
				t.Fatalf("step %d: replay pressured %v, manager %v at total %v", step, got, want, m.DemandMB())
			}
			if !stall {
				return
			}
			if got, want := r.Stall(), m.StallPerCPUSecond(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: replay stall %v, manager %v at total %v", step, got, want, m.DemandMB())
			}
		}
		check(0, true)
		step := 0
		for step < 256 && len(d) > 0 {
			step++
			id, next := d.n(len(demands)), mb()
			if err := m.Update(id, next); err != nil {
				t.Fatal(err)
			}
			r.Step(demands[id], next)
			demands[id] = next
			check(step, d.n(3) == 0)
		}
		check(step, true)
	})
}

// draw reads bounded integers from fuzz input, yielding zeros once the
// input runs out.
type draw []byte

func (d *draw) n(bound int) int {
	if len(*d) == 0 || bound <= 0 {
		return 0
	}
	b := int((*d)[0])
	if len(*d) > 1 {
		b = b<<8 | int((*d)[1])
		*d = (*d)[2:]
	} else {
		*d = (*d)[1:]
	}
	return b % bound
}
