package faults

import (
	"math/rand"
	"testing"
	"time"

	"vrcluster/internal/sim"
)

// scriptSource yields a fixed list of Int63 values, so a test can place a
// value that makes rand.(*Rand).Float64 redraw.
type scriptSource struct {
	vals []int64
	n    int
}

func (s *scriptSource) Int63() int64 { v := s.vals[s.n]; s.n++; return v }
func (s *scriptSource) Seed(int64)   {}

// scripted returns a stream whose first Int63s are vals (at most
// rngTap of them): each draw adds the word under the tap, zero here, to
// the word under the feed, which holds the next value.
func scripted(vals []int64) *stream {
	s := &stream{feed: rngLen - rngTap}
	for i, v := range vals {
		s.vec[s.feed-1-i] = v
	}
	return s
}

// taken counts the values drawn from a scripted stream.
func taken(s *stream) int { return rngLen - rngTap - s.feed }

// roundsToOne is an Int63 so close to 1<<63 that Float64's division rounds
// it to 1.0, forcing a redraw.
const roundsToOne = 1<<63 - 1

func TestNextFloat64MatchesRandFloat64(t *testing.T) {
	if float64(roundsToOne)/(1<<63) != 1 {
		t.Fatal("roundsToOne no longer rounds to 1.0")
	}
	for _, vals := range [][]int64{
		{42},
		{1 << 62},
		{roundsToOne, 7},
		{roundsToOne, roundsToOne, 1 << 40},
	} {
		want := rand.New(&scriptSource{vals: vals}).Float64()
		src := scripted(vals)
		if f := nextFloat64(src); f != want || taken(src) != len(vals) {
			t.Errorf("%v: got %v after %d values, want %v after %d", vals, f, taken(src), want, len(vals))
		}
	}
}

// TestDrawRunConsumesRedraw pins that a Float64 that redrew on 1.0 takes
// its extra values inside its own period and the run goes on past it, up
// to the first drop or the maxDropRun cap.
func TestDrawRunConsumesRedraw(t *testing.T) {
	const keep, drop = 1 << 62, 0 // Float64 0.5 keeps at rate 0.1, 0 drops
	cases := []struct {
		name   string
		vals   []int64
		n      uint8
		drop   bool
		values int
	}{
		{"drop after keeps", []int64{keep, keep, drop, keep}, 3, true, 3},
		{"redraw inside a keeping run", []int64{keep, roundsToOne, keep, keep, drop, keep}, 4, true, 5},
		{"redraw then drop", []int64{roundsToOne, drop, keep}, 1, true, 2},
		{"redraw twice in one period", []int64{roundsToOne, roundsToOne, keep, drop}, 2, true, 4},
	}
	for _, tc := range cases {
		src := scripted(tc.vals)
		n, dropped := drawRun(src, 0.1)
		if n != tc.n || dropped != tc.drop || taken(src) != tc.values {
			t.Errorf("%s: run of %d (drop %v) took %d values, want %d (drop %v) from %d",
				tc.name, n, dropped, taken(src), tc.n, tc.drop, tc.values)
		}
	}
	// A rate no Float64 falls below stops at the cap, counting periods,
	// not values: the two redraws add values but no period.
	vals := make([]int64, 2*maxDropRun)
	for i := range vals {
		vals[i] = keep
	}
	vals[0], vals[maxDropRun/2] = roundsToOne, roundsToOne
	src := scripted(vals)
	if n, dropped := drawRun(src, 1e-300); n != maxDropRun || dropped || taken(src) != maxDropRun+2 {
		t.Errorf("capped run: %d (drop %v) after %d values, want %d after %d", n, dropped, taken(src), maxDropRun, maxDropRun+2)
	}
}

// countedSource is a rand.NewSource that counts its draws, so the
// reference can rewind it by reseeding and replaying. Embedding the plain
// Source interface hides the Uint64 method, so a *rand.Rand over it draws
// through Int63 only.
type countedSource struct {
	rand.Source
	seed  int64
	draws int
}

func (c *countedSource) Int63() int64 { c.draws++; return c.Source.Int63() }

func (c *countedSource) rewind(draws int) {
	c.Source.Seed(c.seed)
	c.draws = 0
	for c.draws < draws {
		c.Int63()
	}
}

// dropRef is the reference the fuzzer checks Drops against: one
// Float64 per node per answered period, straight from math/rand's own
// generator.
type dropRef struct {
	rng     []*rand.Rand
	src     []*countedSource
	retired []bool
	seed    int64
}

func (r *dropRef) addNode() {
	seed := streamSeed(r.seed, 1, len(r.rng))
	src := &countedSource{Source: rand.NewSource(seed), seed: seed}
	r.rng = append(r.rng, rand.New(src))
	r.src = append(r.src, src)
	r.retired = append(r.retired, false)
}

// drop answers one period for node id with one Float64 per call; the
// partition state comes from the injector's per-domain flags.
func (r *dropRef) drop(in *Injector, id int, rate float64) bool {
	if r.retired[id] {
		return false
	}
	if in.partitioned[id%in.plan.Domains] {
		return true
	}
	if rate <= 0 {
		return false
	}
	return r.rng[id].Float64() < rate
}

// dropSaved is a snapshot of both sides.
type dropSaved struct {
	engine  *sim.EngineSnapshot
	in      *Snapshot
	draws   []int
	retired []bool
}

// FuzzDropRefresh drives the injector and the reference through a fuzzed
// script of control periods, clock advances (which open and heal
// partitions on the injector's own timers), retirements, joins, and
// snapshot/restore, and requires the calendar's drop set of every period
// to hold exactly the nodes the reference drops.
func FuzzDropRefresh(f *testing.F) {
	f.Add(1.0, int64(1), []byte{0, 0, 2, 0, 5, 0, 3, 0, 11, 0, 4, 0, 0})
	f.Add(1e-300, int64(2), []byte{0, 0, 0, 5, 0, 0, 11, 0, 4, 0, 2, 2, 0})
	f.Add(0.05, int64(3), []byte{0, 0, 0, 0, 5, 0, 0, 0, 2, 0, 9, 0, 0, 11, 0, 0, 4, 0, 5, 0, 8, 0, 17, 0, 0})
	// Snapshot inside a partition, run past its heal, restore, and ask:
	// the restore must bring the partitioned-domain count back too.
	f.Add(1.0/6, int64(88), []byte("bzA8#0"))
	// Partitions open while runs are part-way through (periods, clock
	// advances until all three domains go dark, more periods, then an
	// advance past every heal and more periods): each member's run must
	// resume where it froze.
	f.Add(0.05, int64(5), []byte{0, 0, 0, 0, 0, 0, 0, 14, 0, 0, 0, 0, 26, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 26, 26, 0, 0, 0, 56, 0, 0, 0, 0})
	// Runs capped at maxDropRun periods with no drop in them: 70 periods,
	// a snapshot, 6 more, the restore, and 3 more.
	f.Add(1e-300, int64(6), append(append(append(make([]byte, 70), 5), make([]byte, 6)...), 11, 0, 0, 0))
	f.Fuzz(func(t *testing.T, rate float64, seed int64, script []byte) {
		if !(rate >= 0 && rate <= 1) {
			t.Skip("Plan.Validate rejects the rate")
		}
		if len(script) > 1024 {
			script = script[:1024]
		}
		const nodes = 5
		e := sim.NewEngine()
		in, err := NewInjector(e, Plan{Seed: seed, DropRate: rate, Domains: 3,
			PartitionMTBF: 20 * time.Second, PartitionMTTR: 5 * time.Second}, nodes, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		in.Start()
		ref := &dropRef{seed: in.plan.Seed}
		for i := 0; i < nodes; i++ {
			ref.addNode()
		}
		var saved *dropSaved
		for step, op := range script {
			arg := int(op / 6)
			switch op % 6 {
			case 0, 1: // one control period
				set, n := in.Drops()
				count := 0
				for id := range ref.rng {
					want := ref.drop(in, id, rate)
					if got := set[id>>6]&(1<<uint(id&63)) != 0; got != want {
						t.Fatalf("step %d node %d: dropped %v, want %v", step, id, got, want)
					}
					if want {
						count++
					}
				}
				if n != count || in.Dropped(-1) || in.Dropped(len(ref.rng)) {
					t.Fatalf("step %d: drop set of %d, want %d and no out-of-range member", step, n, count)
				}
			case 2:
				e.RunUntil(e.Now() + time.Duration(arg+1)*time.Second)
			case 3:
				id := arg % len(ref.retired)
				in.RetireNode(id)
				ref.retired[id] = true
			case 4:
				if len(ref.rng) < 4*nodes {
					if err := in.AddNode(len(ref.rng)); err != nil {
						t.Fatal(err)
					}
					ref.addNode()
				}
			case 5:
				if arg%2 == 0 || saved == nil {
					saved = &dropSaved{engine: e.Snapshot(), in: in.Snapshot(),
						retired: append([]bool(nil), ref.retired...)}
					for _, src := range ref.src {
						saved.draws = append(saved.draws, src.draws)
					}
					continue
				}
				e.Restore(saved.engine)
				in.Restore(saved.in)
				n := len(saved.draws)
				ref.rng, ref.src = ref.rng[:n], ref.src[:n]
				ref.retired = append(ref.retired[:0], saved.retired...)
				for id, d := range saved.draws {
					ref.src[id].rewind(d)
				}
			}
		}
	})
}
