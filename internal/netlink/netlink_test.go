package netlink

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"vrcluster/internal/sim"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 10); err == nil {
		t.Error("nil engine should fail")
	}
	e := sim.NewEngine()
	if _, err := New(e, 0); err == nil {
		t.Error("zero bandwidth should fail")
	}
	l, err := New(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Start(1, nil); err == nil {
		t.Error("nil callback should fail")
	}
	if _, err := l.Start(-1, func(time.Duration) {}); err == nil {
		t.Error("negative payload should fail")
	}
}

func TestSingleTransferMatchesDedicated(t *testing.T) {
	e := sim.NewEngine()
	l, err := New(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	// 10 MB over 10 Mbps = 8 s on a dedicated link.
	if _, err := l.Start(10, func(d time.Duration) { elapsed = d }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(elapsed.Seconds()-8) > 1e-6 {
		t.Errorf("elapsed = %v, want 8s", elapsed)
	}
	if l.Active() != 0 {
		t.Errorf("active = %d after completion", l.Active())
	}
}

func TestTwoConcurrentTransfersShare(t *testing.T) {
	e := sim.NewEngine()
	l, err := New(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	var a, b time.Duration
	if _, err := l.Start(10, func(d time.Duration) { a = d }); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Start(10, func(d time.Duration) { b = d }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// Two equal payloads sharing the wire: both finish at ~16 s.
	if math.Abs(a.Seconds()-16) > 1e-6 || math.Abs(b.Seconds()-16) > 1e-6 {
		t.Errorf("elapsed = %v, %v; want 16s each", a, b)
	}
}

func TestStaggeredTransfers(t *testing.T) {
	e := sim.NewEngine()
	l, err := New(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	var first, second time.Duration
	if _, err := l.Start(10, func(d time.Duration) { first = d }); err != nil {
		t.Fatal(err)
	}
	// Second transfer starts 4 s in, when the first is half done.
	e.After(4*time.Second, func() {
		if _, err := l.Start(10, func(d time.Duration) { second = d }); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	// First: 4 s alone (5 MB) + shares for its remaining 5 MB at 5 Mbps
	// = 8 s more -> 12 s total. Second: shares 8 s (5 MB), then alone
	// for its last 5 MB at 10 Mbps = 4 s -> 12 s total.
	if math.Abs(first.Seconds()-12) > 1e-6 {
		t.Errorf("first elapsed = %v, want 12s", first)
	}
	if math.Abs(second.Seconds()-12) > 1e-6 {
		t.Errorf("second elapsed = %v, want 12s", second)
	}
}

func TestZeroPayloadCompletesImmediately(t *testing.T) {
	e := sim.NewEngine()
	l, err := New(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed = time.Hour
	if _, err := l.Start(0, func(d time.Duration) { elapsed = d }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if elapsed > time.Nanosecond {
		t.Errorf("elapsed = %v, want ~0", elapsed)
	}
}

// Property: work conservation — for any set of payloads started together,
// the last completion time equals total bits / bandwidth, and completions
// are ordered by payload size.
func TestWorkConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 16 {
			sizes = sizes[:16]
		}
		e := sim.NewEngine()
		l, err := New(e, 10)
		if err != nil {
			return false
		}
		total := 0.0
		finishes := make([]time.Duration, len(sizes))
		for i, s := range sizes {
			mb := float64(s%50) + 1
			total += mb
			i := i
			if _, err := l.Start(mb, func(d time.Duration) { finishes[i] = d }); err != nil {
				return false
			}
		}
		e.Run()
		var last time.Duration
		for _, d := range finishes {
			if d > last {
				last = d
			}
		}
		want := total * 8e6 / 10e6 // seconds
		return math.Abs(last.Seconds()-want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: smaller payloads started at the same instant never finish
// after larger ones.
func TestOrderingProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		small := float64(a%40) + 1
		big := small + float64(b%40) + 1
		e := sim.NewEngine()
		l, err := New(e, 10)
		if err != nil {
			return false
		}
		var ds, db time.Duration
		if _, err := l.Start(small, func(d time.Duration) { ds = d }); err != nil {
			return false
		}
		if _, err := l.Start(big, func(d time.Duration) { db = d }); err != nil {
			return false
		}
		e.Run()
		return ds <= db
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCancelMidFlightResettlesSurvivor(t *testing.T) {
	e := sim.NewEngine()
	l, err := New(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	var survivor time.Duration
	doomedFired := false
	id, err := l.Start(10, func(time.Duration) { doomedFired = true })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Start(10, func(d time.Duration) { survivor = d }); err != nil {
		t.Fatal(err)
	}
	// Abort the first transfer 8 s in. Until then the two share the wire
	// (5 Mbps each → 5 MB moved); afterwards the survivor enjoys the full
	// 10 Mbps for its remaining 5 MB (4 s). Total: 12 s.
	e.After(8*time.Second, func() {
		elapsed, ok := l.Cancel(id)
		if !ok {
			t.Error("cancel mid-flight reported not in flight")
		}
		if math.Abs(elapsed.Seconds()-8) > 1e-6 {
			t.Errorf("aborted wire time = %v, want 8s", elapsed)
		}
	})
	e.Run()
	if doomedFired {
		t.Error("cancelled transfer's completion callback fired")
	}
	if math.Abs(survivor.Seconds()-12) > 1e-3 {
		t.Errorf("survivor elapsed = %v, want 12s", survivor)
	}
	if l.Active() != 0 {
		t.Errorf("active = %d after run", l.Active())
	}
}

func TestCancelCompletedOrUnknownIsFalse(t *testing.T) {
	e := sim.NewEngine()
	l, err := New(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	id, err := l.Start(10, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, ok := l.Cancel(id); ok {
		t.Error("cancel after completion should report false")
	}
	if _, ok := l.Cancel(9999); ok {
		t.Error("cancel of unknown id should report false")
	}
}

func TestCancelLastTransferClearsPendingEvent(t *testing.T) {
	e := sim.NewEngine()
	l, err := New(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	id, err := l.Start(10, func(time.Duration) { t.Error("completion after cancel") })
	if err != nil {
		t.Fatal(err)
	}
	e.After(time.Second, func() {
		if _, ok := l.Cancel(id); !ok {
			t.Error("cancel reported not in flight")
		}
	})
	e.Run()
	if l.Active() != 0 {
		t.Errorf("active = %d after cancel", l.Active())
	}
	if e.Len() != 0 {
		t.Errorf("engine still holds %d events after cancelling the only transfer", e.Len())
	}
}
