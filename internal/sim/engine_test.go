package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Errorf("Now = %v, want 0", e.Now())
	}
	if e.Len() != 0 {
		t.Errorf("Len = %d, want 0", e.Len())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	mustSchedule(t, e, 30*time.Millisecond, func() { got = append(got, 3) })
	mustSchedule(t, e, 10*time.Millisecond, func() { got = append(got, 1) })
	mustSchedule(t, e, 20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("final clock = %v, want 30ms", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		mustSchedule(t, e, time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestSchedulePastFails(t *testing.T) {
	e := NewEngine()
	mustSchedule(t, e, time.Second, func() {})
	e.Run()
	if _, err := e.Schedule(500*time.Millisecond, func() {}); err != ErrClockRegression {
		t.Errorf("error = %v, want ErrClockRegression", err)
	}
}

func TestAfterClampsNegative(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(-time.Second, func() { ran = true })
	e.Run()
	if !ran {
		t.Error("negative-delay event never ran")
	}
	if e.Now() != 0 {
		t.Errorf("clock moved to %v for a clamped event", e.Now())
	}
}

// TestAfterSaturates schedules a delay that would wrap past the last
// representable instant: After must keep the event, at math.MaxInt64.
func TestAfterSaturates(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Hour)
	h := e.After(math.MaxInt64, func() {})
	if h == (Handle{}) || e.Len() != 1 {
		t.Fatalf("After(MaxInt64) at %v: handle %+v, %d events pending; want a live handle and 1", e.Now(), h, e.Len())
	}
	if at, ok := e.peek(); !ok || at != math.MaxInt64 {
		t.Fatalf("event due at %v (pending %v), want %v", at, ok, time.Duration(math.MaxInt64))
	}
	if !e.Cancel(h) {
		t.Fatal("saturated event could not be cancelled")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	h := e.After(time.Second, func() { ran = true })
	if !e.Cancel(h) {
		t.Error("Cancel reported event not pending")
	}
	if e.Cancel(h) {
		t.Error("second Cancel should report false")
	}
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if e.Len() != 0 {
		t.Errorf("Len = %d after cancel, want 0", e.Len())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	e.After(time.Second, func() {
		got = append(got, e.Now())
		e.After(time.Second, func() { got = append(got, e.Now()) })
	})
	e.Run()
	if len(got) != 2 || got[0] != time.Second || got[1] != 2*time.Second {
		t.Errorf("chained events at %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		mustSchedule(t, e, time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(3 * time.Second)
	if count != 3 {
		t.Errorf("ran %d events, want 3", count)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("clock = %v, want 3s", e.Now())
	}
	e.RunUntil(10 * time.Second)
	if count != 5 {
		t.Errorf("ran %d events total, want 5", count)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("clock advanced to %v, want deadline 10s", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		mustSchedule(t, e, time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Errorf("ran %d events before stop, want 2", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
	// The stop is sticky: Run without Reset executes nothing.
	e.Run()
	if count != 2 {
		t.Errorf("ran %d events while stopped, want 2", count)
	}
	// Reset clears the stop; Run resumes.
	e.Reset()
	e.Run()
	if count != 5 {
		t.Errorf("ran %d events after Reset, want 5", count)
	}
}

// A Stop issued before Run must not be dropped: nothing may execute until
// Reset. This was the silent-reset bug — Run used to clear the flag on
// entry.
func TestStopBeforeRunIsSticky(t *testing.T) {
	e := NewEngine()
	ran := false
	mustSchedule(t, e, time.Second, func() { ran = true })
	e.Stop()
	e.Run()
	if ran {
		t.Error("stopped engine executed an event")
	}
	e.RunUntil(5 * time.Second)
	if ran {
		t.Error("stopped engine executed an event via RunUntil")
	}
	if e.Now() != 0 {
		t.Errorf("stopped RunUntil advanced the clock to %v", e.Now())
	}
	e.Reset()
	e.Run()
	if !ran {
		t.Error("event did not run after Reset")
	}
}

// Property: for any set of delays, events execute in nondecreasing time
// order and the clock never regresses.
func TestMonotonicClockProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			if _, err := e.Schedule(at, func() { times = append(times, e.Now()) }); err != nil {
				return false
			}
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved schedule/cancel never loses or duplicates an
// uncancelled event.
func TestCancelConservationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		ran := make(map[int]int)
		var handles []Handle
		var ids []int
		cancelled := make(map[int]bool)
		for i := 0; i < int(n); i++ {
			i := i
			h, err := e.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() { ran[i]++ })
			if err != nil {
				return false
			}
			handles = append(handles, h)
			ids = append(ids, i)
			if rng.Intn(3) == 0 {
				e.Cancel(h)
				cancelled[i] = true
			}
		}
		e.Run()
		for k, id := range ids {
			_ = handles[k]
			if cancelled[id] {
				if ran[id] != 0 {
					return false
				}
			} else if ran[id] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var at []time.Duration
	tk, err := NewTicker(e, time.Second, func() { at = append(at, e.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(3500 * time.Millisecond)
	tk.Stop()
	e.RunUntil(10 * time.Second)
	if len(at) != 3 {
		t.Fatalf("ticked %d times, want 3: %v", len(at), at)
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if at[i] != want {
			t.Errorf("tick %d at %v, want %v", i, at[i], want)
		}
	}
}

func TestTickerStopIdempotent(t *testing.T) {
	e := NewEngine()
	tk, err := NewTicker(e, time.Second, func() {})
	if err != nil {
		t.Fatal(err)
	}
	tk.Stop()
	tk.Stop()
	e.Run()
	if e.Len() != 0 {
		t.Errorf("pending events after stop: %d", e.Len())
	}
}

func TestTickerRejectsNonPositivePeriod(t *testing.T) {
	e := NewEngine()
	if _, err := NewTicker(e, 0, func() {}); err == nil {
		t.Error("zero period should error")
	}
	if _, err := NewTicker(e, -time.Second, func() {}); err == nil {
		t.Error("negative period should error")
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk, err := NewTicker(e, time.Second, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if count != 2 {
		t.Errorf("ticked %d times, want 2", count)
	}
	if e.Len() != 0 {
		t.Errorf("stop from callback leaked %d pending events", e.Len())
	}
}

// During the callback, the ticker's handle refers to the already-armed
// next tick; Stop must cancel it immediately rather than leaving it to
// fire once more.
func TestTickerStopFromCallbackCancelsRearmedTick(t *testing.T) {
	e := NewEngine()
	var tk *Ticker
	count := 0
	tk, err := NewTicker(e, time.Second, func() {
		count++
		tk.Stop()
		if e.Len() != 0 {
			t.Errorf("re-armed tick still pending after Stop: Len = %d", e.Len())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if count != 1 {
		t.Errorf("ticked %d times after immediate stop, want 1", count)
	}
}

func mustSchedule(t *testing.T, e *Engine, at time.Duration, fn func()) {
	t.Helper()
	if _, err := e.Schedule(at, fn); err != nil {
		t.Fatalf("Schedule(%v): %v", at, err)
	}
}
