package faults

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/sim"
)

func TestPlanValidateDefaults(t *testing.T) {
	p := Plan{MTBF: time.Hour}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Seed != DefaultSeed {
		t.Errorf("seed = %d, want default %d", p.Seed, DefaultSeed)
	}
	if p.MTTR != time.Hour/10 {
		t.Errorf("MTTR = %v, want MTBF/10", p.MTTR)
	}
	if p.MaxRetries != DefaultMaxRetries || p.RetryBackoff != DefaultRetryBackoff {
		t.Errorf("retry defaults not filled: %d %v", p.MaxRetries, p.RetryBackoff)
	}
	if p.DegradeAfter != DefaultDegradeAfter {
		t.Errorf("degrade-after = %v, want default", p.DegradeAfter)
	}
}

func TestPlanValidateRejects(t *testing.T) {
	bad := []Plan{
		{MTBF: -time.Second},
		{MTTR: -time.Second},
		{Crash: CrashPolicy(7)},
		{DropRate: -0.1},
		{DropRate: 1.1},
		{AbortRate: 2},
		{DropRate: math.NaN()},
		{AbortRate: math.NaN()},
		{DropRate: math.Inf(1)},
		{AbortRate: math.Inf(-1)},
		{MaxRetries: -1},
		{RetryBackoff: -time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d should fail validation: %+v", i, p)
		}
	}
}

func TestPlanActive(t *testing.T) {
	if (Plan{}).Active() {
		t.Error("zero plan should be inactive")
	}
	for _, p := range []Plan{{MTBF: time.Hour}, {DropRate: 0.1}, {AbortRate: 0.1}} {
		if !p.Active() {
			t.Errorf("plan %+v should be active", p)
		}
	}
}

func TestBackoffDoubles(t *testing.T) {
	p := Plan{RetryBackoff: time.Second}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffSaturatesInsteadOfOverflowing(t *testing.T) {
	p := Plan{RetryBackoff: time.Second}
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{1, time.Second},
		{2, 2 * time.Second},
		{5, 16 * time.Second},
		// Past the doubling cap the delay pins instead of overflowing
		// int64 into a negative timer: attempts 33, 63, and 1000 all get
		// the same capped delay.
		{33, time.Duration(1<<32) * time.Second},
		{63, time.Duration(1<<32) * time.Second},
		{64, time.Duration(1<<32) * time.Second},
		{1000, time.Duration(1<<32) * time.Second},
	}
	for _, tc := range cases {
		got := p.Backoff(tc.attempt)
		if got != tc.want {
			t.Errorf("Backoff(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
		if got < 0 {
			t.Errorf("Backoff(%d) = %v went negative", tc.attempt, got)
		}
	}
	// A plan whose base backoff is already huge must saturate immediately.
	big := Plan{RetryBackoff: math.MaxInt64 / 2}
	for _, attempt := range []int{2, 3, 100} {
		if got := big.Backoff(attempt); got < 0 {
			t.Errorf("huge base: Backoff(%d) = %v went negative", attempt, got)
		}
	}
	if (Plan{}).Backoff(50) != 0 {
		t.Error("zero base backoff should stay zero")
	}
}

func TestParseCrashPolicy(t *testing.T) {
	for s, want := range map[string]CrashPolicy{"kill": Kill, "requeue": Requeue} {
		got, err := ParseCrashPolicy(s)
		if err != nil || got != want {
			t.Errorf("parse(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseCrashPolicy("explode"); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestNewInjectorValidation(t *testing.T) {
	e := sim.NewEngine()
	if _, err := NewInjector(nil, Plan{}, 4, Hooks{}); err == nil {
		t.Error("nil engine should fail")
	}
	if _, err := NewInjector(e, Plan{}, 0, Hooks{}); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := NewInjector(e, Plan{MTBF: -1}, 4, Hooks{}); err == nil {
		t.Error("invalid plan should fail")
	}
}

// faultLog records one run's full fault schedule.
type faultLog struct {
	crashes, recoveries []string
	drops               []string
	aborts              []string
}

// replay drives an injector for simulated dur, sampling Drops each
// second and AbortMigration every 5 s, and returns the schedule.
func replay(t *testing.T, plan Plan, nodes int, dur time.Duration) faultLog {
	t.Helper()
	e := sim.NewEngine()
	var log faultLog
	in, err := NewInjector(e, plan, nodes, Hooks{
		Crash: func(id int) {
			log.crashes = append(log.crashes, time.Duration(e.Now()).String()+"#"+string(rune('a'+id)))
		},
		Recover: func(id int) {
			log.recoveries = append(log.recoveries, time.Duration(e.Now()).String()+"#"+string(rune('a'+id)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	tick, err := sim.NewTicker(e, time.Second, func() {
		in.Drops()
		for id := 0; id < nodes; id++ {
			if in.Dropped(id) {
				log.drops = append(log.drops, e.Now().String()+"#"+string(rune('a'+id)))
			}
		}
		if int(e.Now()/time.Second)%5 == 0 {
			if abort, frac := in.AbortMigration(); abort {
				log.aborts = append(log.aborts, e.Now().String())
				_ = frac
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tick.Stop()
	e.RunUntil(dur)
	e.Stop()
	return log
}

// TestInjectorDeterminism: the same plan yields byte-identical fault
// schedules across independent engines — the property the parallel
// experiment fan-out relies on.
func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Seed: 7, MTBF: 40 * time.Second, MTTR: 5 * time.Second, DropRate: 0.2, AbortRate: 0.5}
	a := replay(t, plan, 4, 5*time.Minute)
	b := replay(t, plan, 4, 5*time.Minute)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault schedules differ between identical plans:\n%+v\n%+v", a, b)
	}
	if len(a.crashes) == 0 || len(a.drops) == 0 || len(a.aborts) == 0 {
		t.Errorf("expected activity in every dimension: %d crashes, %d drops, %d aborts",
			len(a.crashes), len(a.drops), len(a.aborts))
	}
	c := replay(t, Plan{Seed: 8, MTBF: 40 * time.Second, MTTR: 5 * time.Second, DropRate: 0.2, AbortRate: 0.5}, 4, 5*time.Minute)
	if reflect.DeepEqual(a.crashes, c.crashes) {
		t.Error("different seeds produced identical crash schedules")
	}
}

// TestCrashRecoverAlternates: per node, crash and recovery events strictly
// alternate starting with a crash.
func TestCrashRecoverAlternates(t *testing.T) {
	e := sim.NewEngine()
	state := map[int]int{} // 0 = up, 1 = down
	in, err := NewInjector(e, Plan{Seed: 3, MTBF: 30 * time.Second, MTTR: 3 * time.Second}, 3, Hooks{
		Crash: func(id int) {
			if state[id] != 0 {
				t.Errorf("node %d crashed while down", id)
			}
			state[id] = 1
		},
		Recover: func(id int) {
			if state[id] != 1 {
				t.Errorf("node %d recovered while up", id)
			}
			state[id] = 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	e.RunUntil(10 * time.Minute)
	e.Stop()
}

func TestAbortFractionBounds(t *testing.T) {
	e := sim.NewEngine()
	in, err := NewInjector(e, Plan{Seed: 5, AbortRate: 1}, 1, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		abort, frac := in.AbortMigration()
		if !abort {
			t.Fatal("abort rate 1 must always abort")
		}
		if frac < 0.05 || frac > 0.95 {
			t.Fatalf("fraction %v outside [0.05, 0.95]", frac)
		}
	}
}

func TestInactiveDrawsAreStable(t *testing.T) {
	e := sim.NewEngine()
	in, err := NewInjector(e, Plan{Seed: 5}, 2, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	in.Start() // no MTBF: must schedule nothing
	if e.Len() != 0 {
		t.Errorf("inactive plan armed %d events", e.Len())
	}
	if _, n := in.Drops(); n != 0 || in.Dropped(0) || in.Dropped(99) {
		t.Error("inactive drop rate must never drop")
	}
	if abort, _ := in.AbortMigration(); abort {
		t.Error("inactive abort rate must never abort")
	}
}

// TestCenturiesApartFaultsWait: with every mean at 200 years, about a
// quarter of the exponential draws exceed the largest Duration (about 292
// years). They must saturate, not wrap negative and fire at once, so
// nothing crashes or partitions in the first simulated hour.
func TestCenturiesApartFaultsWait(t *testing.T) {
	const years200 = 200 * 365 * 24 * time.Hour
	e := sim.NewEngine()
	var fired []string
	in, err := NewInjector(e, Plan{
		Seed:          11,
		MTBF:          years200,
		Domains:       4,
		DomainMTBF:    years200,
		PartitionMTBF: years200,
	}, 64, Hooks{
		Crash:          func(id int) { fired = append(fired, fmt.Sprintf("crash %d at %v", id, e.Now())) },
		PartitionStart: func(d int, _ []int) { fired = append(fired, fmt.Sprintf("partition %d at %v", d, e.Now())) },
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	e.RunUntil(time.Hour)
	if len(fired) > 0 {
		t.Errorf("%d faults in the first hour, first %s", len(fired), fired[0])
	}
	saturated := 0
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := expDelay(r, years200)
		if d < 0 {
			t.Fatalf("draw %d: negative delay %v", i, d)
		}
		if d == math.MaxInt64 {
			saturated++
		}
	}
	if saturated == 0 {
		t.Error("no draw of 1000 saturated; the test no longer reaches the overflow")
	}
}
