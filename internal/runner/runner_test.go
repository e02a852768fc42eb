package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/sim"
)

func TestMapPreservesInputOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, parallel := range []int{0, 1, 2, 7, 100} {
		got, err := Map(parallel, items, func(i, item int) (string, error) {
			return fmt.Sprintf("%d:%d", i, item*item), nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, s := range got {
			if want := fmt.Sprintf("%d:%d", i, i*i); s != want {
				t.Fatalf("parallel=%d: out[%d] = %q, want %q", parallel, i, s, want)
			}
		}
	}
}

func TestMapParallelMatchesSequential(t *testing.T) {
	items := []int{5, 3, 8, 1, 9, 2, 7}
	fn := func(i, item int) (int, error) { return item*1000 + i, nil }
	seq, err := Map(1, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(4, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel output %v differs from sequential %v", par, seq)
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	out, err := Map(8, nil, func(i, item int) (int, error) { return item, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty input: out=%v err=%v", out, err)
	}
	out, err = Map(8, []int{42}, func(i, item int) (int, error) { return item + i, nil })
	if err != nil || len(out) != 1 || out[0] != 42 {
		t.Errorf("single input: out=%v err=%v", out, err)
	}
}

// The error returned must be the lowest-index failure — what the
// sequential path would have returned — regardless of completion order.
func TestMapReturnsEarliestError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	errAt := func(bad ...int) func(i, item int) (int, error) {
		set := map[int]bool{}
		for _, b := range bad {
			set[b] = true
		}
		return func(i, item int) (int, error) {
			if set[i] {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return item, nil
		}
	}
	for _, parallel := range []int{1, 3, 8} {
		_, err := Map(parallel, items, errAt(5, 2, 6))
		if err == nil || err.Error() != "task 2 failed" {
			t.Errorf("parallel=%d: err = %v, want task 2 failed", parallel, err)
		}
	}
}

func TestMapSequentialStopsAtFirstError(t *testing.T) {
	ran := make([]bool, 5)
	sentinel := errors.New("boom")
	_, err := Map(1, []int{0, 1, 2, 3, 4}, func(i, item int) (int, error) {
		ran[i] = true
		if i == 2 {
			return 0, sentinel
		}
		return item, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if !ran[0] || !ran[1] || !ran[2] {
		t.Error("tasks before the failure did not run")
	}
	if ran[3] || ran[4] {
		t.Error("sequential path ran tasks after the failure")
	}
}

// Stress test: many concurrent discrete-event simulations, each with its
// own engine, tickers, and RNG. Run under -race (scripts/verify.sh), this
// mechanically catches any shared state creeping into the sim substrate —
// the property the parallel experiment path depends on.
func TestMapEngineStress(t *testing.T) {
	type result struct {
		events int
		now    time.Duration
		draw   int64
	}
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	run := func(_ int, seed int64) (result, error) {
		e := sim.NewEngine()
		rng := rand.New(rand.NewSource(seed))
		events := 0
		tk, err := sim.NewTicker(e, 10*time.Millisecond, func() { events++ })
		if err != nil {
			return result{}, err
		}
		for i := 0; i < 50; i++ {
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			e.After(d, func() { events++ })
		}
		e.RunUntil(time.Second)
		tk.Stop()
		e.Run()
		return result{events: events, now: e.Now(), draw: rng.Int63()}, nil
	}
	seq, err := Map(1, seeds, run)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		par, err := Map(8, seeds, run)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("round %d: parallel results diverged from sequential", round)
		}
	}
}

func TestMapTimedAndSpeedup(t *testing.T) {
	items := []int{1, 2, 3, 4}
	timed, err := MapTimed(2, items, func(i, item int) (int, error) {
		time.Sleep(time.Millisecond)
		return item * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range timed {
		if tr.Value != items[i]*2 {
			t.Errorf("value[%d] = %d", i, tr.Value)
		}
		if tr.Elapsed <= 0 {
			t.Errorf("elapsed[%d] = %v", i, tr.Elapsed)
		}
	}
	work, speedup := Speedup(timed, 2*time.Millisecond)
	if work < 4*time.Millisecond {
		t.Errorf("work = %v, want >= 4ms", work)
	}
	if speedup <= 0 {
		t.Errorf("speedup = %v", speedup)
	}
	if _, s := Speedup(timed, 0); s != 0 {
		t.Errorf("zero wall should report zero speedup, got %v", s)
	}
}

func TestDefaultParallelism(t *testing.T) {
	if DefaultParallelism() < 1 {
		t.Errorf("DefaultParallelism = %d", DefaultParallelism())
	}
}
