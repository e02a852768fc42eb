package sim

import (
	"reflect"
	"testing"
	"time"
)

// ScheduleClass must order same-instant events by (class, scheduling
// order) regardless of scheduling sequence — the property fork-injected
// tail arrivals rely on to win ties against held-open clock ticks.
func TestScheduleClassOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	at := 10 * time.Millisecond
	e.ScheduleClass(at, ClassDiverge, func() { got = append(got, "d0") })
	e.ScheduleClass(at, ClassNormal, func() { got = append(got, "n0") })
	e.ScheduleClass(at, ClassArrival, func() { got = append(got, "a0") })
	e.ScheduleClass(at, ClassNormal, func() { got = append(got, "n1") })
	e.ScheduleClass(at, ClassArrival, func() { got = append(got, "a1") })
	e.Run()
	want := []string{"a0", "a1", "n0", "n1", "d0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("same-instant order = %v, want %v", got, want)
	}
}

// RunToDivergence must execute everything strictly before at, plus the
// sub-divergence classes at at, and leave divergence-class events pending.
func TestRunToDivergence(t *testing.T) {
	e := NewEngine()
	var got []string
	at := 20 * time.Millisecond
	e.ScheduleClass(5*time.Millisecond, ClassDiverge, func() { got = append(got, "early-d") })
	e.ScheduleClass(at, ClassArrival, func() { got = append(got, "at-a") })
	e.ScheduleClass(at, ClassNormal, func() { got = append(got, "at-n") })
	e.ScheduleClass(at, ClassDiverge, func() { got = append(got, "at-d") })
	e.ScheduleClass(30*time.Millisecond, ClassArrival, func() { got = append(got, "late-a") })
	e.RunToDivergence(at)
	want := []string{"early-d", "at-a", "at-n"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("executed = %v, want %v", got, want)
	}
	if e.Now() != at {
		t.Fatalf("clock = %v, want %v", e.Now(), at)
	}
	e.Run()
	want = append(want, "at-d", "late-a")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after Run executed = %v, want %v", got, want)
	}
}

// AdvanceTo is a pure clock move: backward is a regression, past a pending
// event is a reorder, and anything up to the next event is fine.
func TestAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.Schedule(50*time.Millisecond, func() {})
	if err := e.AdvanceTo(40 * time.Millisecond); err != nil {
		t.Fatalf("advance to 40ms: %v", err)
	}
	if e.Now() != 40*time.Millisecond {
		t.Fatalf("clock = %v", e.Now())
	}
	if err := e.AdvanceTo(30 * time.Millisecond); err == nil {
		t.Error("backward advance should fail")
	}
	if err := e.AdvanceTo(60 * time.Millisecond); err == nil {
		t.Error("advance past a pending event should fail")
	}
	if err := e.AdvanceTo(50 * time.Millisecond); err != nil {
		t.Fatalf("advance onto the pending event's instant: %v", err)
	}
}

// An engine restore must replay the identical event sequence: events
// scheduled after the snapshot vanish, and events that fired or were
// cancelled after it are pending again — including stale-handle behavior.
func TestEngineSnapshotRestore(t *testing.T) {
	e := NewEngine()
	var got []string
	logAt := func(tag string, at time.Duration) Handle {
		h, err := e.Schedule(at, func() { got = append(got, tag) })
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	logAt("a", 10*time.Millisecond)
	hb := logAt("b", 20*time.Millisecond)
	logAt("c", 30*time.Millisecond)
	e.RunUntil(15 * time.Millisecond)

	snap := e.Snapshot()
	if snap.Now() != 15*time.Millisecond {
		t.Fatalf("snapshot Now = %v", snap.Now())
	}

	// Diverge: cancel b, add d, run to completion.
	e.Cancel(hb)
	logAt("d", 25*time.Millisecond)
	e.Run()
	first := append([]string(nil), got...)
	if want := []string{"a", "d", "c"}; !reflect.DeepEqual(first, want) {
		t.Fatalf("diverged run = %v, want %v", first, want)
	}

	// Restore: b is pending again, d is gone.
	e.Restore(snap)
	got = got[:0]
	if e.Now() != 15*time.Millisecond {
		t.Fatalf("restored clock = %v", e.Now())
	}
	e.Run()
	if want := []string{"b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run = %v, want %v", got, want)
	}

	// Restore again and replay the divergence: the same cancel + schedule
	// must reproduce the first continuation bit for bit.
	e.Restore(snap)
	got = got[:0]
	e.Cancel(hb)
	logAt("d", 25*time.Millisecond)
	e.Run()
	// "a" fired before the snapshot, so the replay yields the suffix.
	if !reflect.DeepEqual(got, first[1:]) {
		t.Fatalf("replayed divergence = %v, want %v", got, first[1:])
	}
}

// A ticker snapshot pairs with the engine snapshot: restoring both revives
// the pending tick and the cadence continues from the saved instant.
func TestTickerSnapshotRestore(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	tk, err := NewTicker(e, 10*time.Millisecond, func() { ticks = append(ticks, e.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(25 * time.Millisecond)
	es, ts := e.Snapshot(), tk.Snapshot()

	e.RunUntil(60 * time.Millisecond)
	first := append([]time.Duration(nil), ticks...)

	e.Restore(es)
	tk.Restore(ts)
	ticks = ticks[:0]
	e.RunUntil(60 * time.Millisecond)
	if !reflect.DeepEqual(ticks, first[2:]) {
		t.Fatalf("restored ticker cadence = %v, want %v", ticks, first[2:])
	}

	// A stop after the snapshot must not survive a restore.
	e.Restore(es)
	tk.Restore(ts)
	tk.Stop()
	restopped := tk.Snapshot()
	if !restopped.Stopped {
		t.Fatal("Stop not reflected in snapshot")
	}
	tk.Restore(ts)
	if tk.Snapshot().Stopped {
		t.Fatal("restore kept the post-snapshot stop")
	}
}
