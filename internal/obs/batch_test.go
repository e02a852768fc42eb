package obs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// sampleBatch builds one sample tick: a KindNodeSample per listed node at
// instant at, with idle values spread over twelve orders of magnitude so
// their float sums depend on the order of addition.
func sampleBatch(rng *rand.Rand, at time.Duration, nodes []int) []Event {
	out := make([]Event, len(nodes))
	for i, id := range nodes {
		out[i] = Event{At: at, Kind: KindNodeSample, Node: int32(id), Job: -1,
			Aux: int32(rng.Intn(4)), Val: math.Ldexp(rng.Float64(), rng.Intn(40)-20)}
	}
	return out
}

// span lists the node IDs from lo to hi-1, skipping every node ID that is
// a multiple of skip (retired workstations leave gaps).
func span(lo, hi, skip int) []int {
	var ids []int
	for id := lo; id < hi; id++ {
		if skip > 0 && id%skip == 0 {
			continue
		}
		ids = append(ids, id)
	}
	return ids
}

// batchScript is a stream of steps: a single event goes through Emit on
// both sides, a batch through Emit one by one on the reference side and
// through EmitSamples on the batched side.
type batchStep struct {
	single *Event
	batch  []Event
}

func batchScript() []batchStep {
	rng := rand.New(rand.NewSource(5))
	open := frEv(time.Second, KindEpisodeOpen)
	submit := frEv(1500*time.Millisecond, KindJobSubmit)
	closeEp := Event{At: 40 * time.Second, Kind: KindEpisodeClose, Node: -1, Job: -1, Aux: -1, Val: 39}
	tick3 := sampleBatch(rng, 3*time.Second, span(0, 150, 7))
	return []batchStep{
		{batch: sampleBatch(rng, 0, span(0, 130, 0))},
		{single: &open},
		{batch: sampleBatch(rng, 2*time.Second, span(0, 200, 5))},
		{single: &submit},
		// One tick's samples arriving as two batches: the second batch
		// continues partitions the first one opened.
		{batch: tick3[:50]},
		{batch: tick3[50:]},
		// Past the 5 s episode SLO: the first sample of this batch fires
		// the dump.
		{batch: sampleBatch(rng, 10*time.Second, span(0, 90, 0))},
		{batch: sampleBatch(rng, 11*time.Second, []int{3})},
		{single: &closeEp},
		{batch: sampleBatch(rng, 41*time.Second, span(60, 260, 3))},
	}
}

// emitSide is one tracer with both streaming consumers attached.
type emitSide struct {
	tr     *Tracer
	series *Series
	rec    *FlightRecorder
	sink   *recordingSink
}

func newEmitSide(tr *Tracer, ring int) *emitSide {
	s := &emitSide{tr: tr, series: NewRegistry().Series("vr", "t", 1), sink: &recordingSink{}}
	s.rec = NewFlightRecorder(FlightConfig{Ring: ring, EpisodeSLO: 5 * time.Second, Sink: s.sink.fn})
	tr.SetMetrics(s.series)
	tr.SetFlightRecorder(s.rec)
	return s
}

// TestEmitSamplesMatchesEmit replays one script through per-event Emit and
// through EmitSamples and requires every consumer to agree: the series'
// partition gauges bit for bit after every batch, its kind counts, the
// flight ring (sized to wrap mid-batch) and its SLO dumps, and the
// retained buffer of unbounded, bounded and stream tracers.
func TestEmitSamplesMatchesEmit(t *testing.T) {
	tracers := []struct {
		name string
		mk   func() *Tracer
	}{
		{"unbounded", func() *Tracer { return NewTracer(0) }},
		{"bounded-wraps-mid-batch", func() *Tracer { return NewTracer(300) }},
		{"bounded-smaller-than-batch", func() *Tracer { return NewTracer(37) }},
		{"stream", NewStreamTracer},
	}
	for _, tc := range tracers {
		for _, ring := range []int{1, 64, 177, DefaultFlightRing} {
			ref, got := newEmitSide(tc.mk(), ring), newEmitSide(tc.mk(), ring)
			for _, st := range batchScript() {
				if st.single != nil {
					ref.tr.Emit(*st.single)
					got.tr.Emit(*st.single)
					continue
				}
				for _, ev := range st.batch {
					ref.tr.Emit(ev)
				}
				got.tr.EmitSamples(st.batch)
				// Later ticks overwrite the gauges, so compare them now.
				checkGaugesEqual(t, tc.name, ring, ref.series, got.series)
			}
			checkSidesEqual(t, tc.name, ring, ref, got)
		}
	}
}

func checkSidesEqual(t *testing.T, name string, ring int, ref, got *emitSide) {
	t.Helper()
	for k := Kind(0); k < kindCount; k++ {
		if a, b := ref.series.KindCount(k), got.series.KindCount(k); a != b {
			t.Errorf("%s/ring %d: %v count %d, want %d", name, ring, k, b, a)
		}
	}
	if !reflect.DeepEqual(got.rec.Events(), ref.rec.Events()) {
		t.Errorf("%s/ring %d: flight ring differs", name, ring)
	}
	if ref.rec.Triggers() != 1 {
		t.Errorf("%s/ring %d: reference fired %d triggers, want the one episode SLO", name, ring, ref.rec.Triggers())
	}
	if got.rec.Triggers() != ref.rec.Triggers() || !reflect.DeepEqual(got.sink.reasons, ref.sink.reasons) ||
		!reflect.DeepEqual(got.sink.dumps, ref.sink.dumps) {
		t.Errorf("%s/ring %d: dumps %v differ from %v", name, ring, got.sink.reasons, ref.sink.reasons)
	}
	if got.tr.Len() != ref.tr.Len() || got.tr.Dropped() != ref.tr.Dropped() ||
		!reflect.DeepEqual(got.tr.Events(), ref.tr.Events()) {
		t.Errorf("%s/ring %d: retained %d (dropped %d), want %d (dropped %d)", name, ring,
			got.tr.Len(), got.tr.Dropped(), ref.tr.Len(), ref.tr.Dropped())
	}
}

// checkGaugesEqual compares two series' partition gauges bit for bit.
func checkGaugesEqual(t *testing.T, name string, ring int, ref, got *Series) {
	t.Helper()
	rp, gp := ref.Partitions(), got.Partitions()
	if len(rp) != len(gp) {
		t.Fatalf("%s/ring %d: %d partitions, want %d", name, ring, len(gp), len(rp))
	}
	for i := range rp {
		if rp[i].Jobs != gp[i].Jobs || math.Float64bits(rp[i].IdleMB) != math.Float64bits(gp[i].IdleMB) {
			t.Fatalf("%s/ring %d: partition %d = %+v, want %+v", name, ring, i, gp[i], rp[i])
		}
	}
}

func TestEmitSamplesNilAndEmpty(t *testing.T) {
	var nilTr *Tracer
	nilTr.EmitSamples([]Event{{Kind: KindNodeSample}}) // must not panic
	tr := NewTracer(0)
	tr.SetFlightRecorder(NewFlightRecorder(FlightConfig{Ring: 4}))
	tr.EmitSamples(nil)
	if tr.Len() != 0 || len(tr.Flight().Events()) != 0 {
		t.Fatal("empty batch left events behind")
	}
}
