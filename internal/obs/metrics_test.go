package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"vrcluster/internal/stats"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Series("vr", "SPEC-Trace-3", 3)
	b := r.Series("vr", "SPEC-Trace-3", 3)
	if a != b {
		t.Fatal("same labels must return the same series")
	}
	c := r.Series("vr", "SPEC-Trace-3", 4)
	if c == a {
		t.Fatal("different level must create a new series")
	}
	d := r.Series("baseline", "SPEC-Trace-3", 3)
	if d == a {
		t.Fatal("different policy must create a new series")
	}
	if r.Series("vr", "custom", -7).Level() != -1 {
		t.Fatal("negative levels must normalize to -1")
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	var order []string
	r.Each(func(s *Series) { order = append(order, s.Policy()+"/"+s.TraceName()) })
	if len(order) != 4 || order[0] != "vr/SPEC-Trace-3" {
		t.Fatalf("Each order = %v", order)
	}
}

func TestSeriesObserveStream(t *testing.T) {
	tr := NewStreamTracer()
	s := NewRegistry().Series("vr", "SPEC-Trace-1", 1)
	tr.SetMetrics(s)

	tr.Emit(Event{At: time.Second, Kind: KindJobSubmit, Job: 1})
	tr.Emit(Event{At: time.Second, Kind: KindJobSubmit, Job: 2})
	tr.Emit(Event{At: 2 * time.Second, Kind: KindEpisodeOpen})
	tr.Emit(Event{At: 3 * time.Second, Kind: KindReserveAcquire, Node: 4})
	tr.Emit(Event{At: 9 * time.Second, Kind: KindEpisodeClose, Val: 7})
	tr.Emit(Event{At: 12 * time.Second, Kind: KindReserveRelease, Node: 4, Val: 9})
	tr.Emit(Event{At: 13 * time.Second, Kind: KindMigrationComplete, Node: 2, Job: 1, Val: 1.5})

	if tr.Len() != 0 {
		t.Fatalf("stream tracer retained %d events, want 0", tr.Len())
	}
	if got := s.KindCount(KindJobSubmit); got != 2 {
		t.Fatalf("job-submit count = %d, want 2", got)
	}
	snap := s.SnapshotSeries()
	if snap.EpisodesOpen != 0 || snap.ReservedNodes != 0 {
		t.Fatalf("open gauges = %d/%d, want 0/0 after close/release", snap.EpisodesOpen, snap.ReservedNodes)
	}
	if snap.EpisodeDuration.Count != 1 || snap.EpisodeDuration.Sum != 7 {
		t.Fatalf("episode histogram = %+v", snap.EpisodeDuration)
	}
	if snap.ReservationHold.Count != 1 || snap.ReservationHold.Sum != 9 {
		t.Fatalf("reservation histogram = %+v", snap.ReservationHold)
	}
	if snap.MigrationLatency.Count != 1 || snap.MigrationLatency.Sum != 1.5 {
		t.Fatalf("migration histogram = %+v", snap.MigrationLatency)
	}
	if snap.Events["job-submit"] != 2 || snap.Events["episode-open"] != 1 {
		t.Fatalf("event map = %v", snap.Events)
	}
}

func TestSeriesClusterGaugesAndReconfig(t *testing.T) {
	s := NewRegistry().Series("vr", "SPEC-Trace-2", 2)
	s.SetClusterGauges(90*time.Second, 3, 17, 20, 5, 32)
	s.SetReconfigStats(ReconfigStats{BlockedEvents: 11, Started: 4, Matured: 2})
	snap := s.SnapshotSeries()
	if snap.VirtualSeconds != 90 || snap.PendingJobs != 3 || snap.OutstandingJobs != 17 ||
		snap.ActiveNodes != 20 || snap.PressuredNodes != 5 || snap.LiveNodes != 32 {
		t.Fatalf("gauges = %+v", snap)
	}
	if snap.Reconfig.BlockedEvents != 11 || snap.Reconfig.Started != 4 || snap.Reconfig.Matured != 2 {
		t.Fatalf("reconfig = %+v", snap.Reconfig)
	}
}

// TestPartitionGauges exercises the tick-reset-then-accumulate contract:
// samples within one tick sum per 64-node partition, and the first sample
// of a new tick replaces the old sums.
func TestPartitionGauges(t *testing.T) {
	s := NewRegistry().Series("vr", "SPEC-Trace-3", 3)
	tick1 := time.Second
	s.observe(Event{At: tick1, Kind: KindNodeSample, Node: 0, Aux: 2, Val: 10})
	s.observe(Event{At: tick1, Kind: KindNodeSample, Node: 63, Aux: 3, Val: 5})
	s.observe(Event{At: tick1, Kind: KindNodeSample, Node: 64, Aux: 1, Val: 1})
	parts := s.Partitions()
	if len(parts) < 2 {
		t.Fatalf("partitions = %v", parts)
	}
	if parts[0].Jobs != 5 || parts[0].IdleMB != 15 {
		t.Fatalf("partition 0 = %+v, want jobs 5 idle 15", parts[0])
	}
	if parts[1].Jobs != 1 || parts[1].IdleMB != 1 {
		t.Fatalf("partition 1 = %+v, want jobs 1 idle 1", parts[1])
	}

	tick2 := 2 * time.Second
	s.observe(Event{At: tick2, Kind: KindNodeSample, Node: 1, Aux: 7, Val: 2})
	parts = s.Partitions()
	if parts[0].Jobs != 7 || parts[0].IdleMB != 2 {
		t.Fatalf("partition 0 after new tick = %+v, want jobs 7 idle 2", parts[0])
	}

	// A join far beyond the current width grows the arrays and keeps the
	// existing partitions' values.
	s.observe(Event{At: tick2, Kind: KindNodeSample, Node: 1000, Aux: 1, Val: 1})
	parts = s.Partitions()
	if len(parts) < 1000>>partitionShift {
		t.Fatalf("partitions did not grow: %d", len(parts))
	}
	if parts[0].Jobs != 7 {
		t.Fatalf("growth lost partition 0: %+v", parts[0])
	}
	if p := parts[1000>>partitionShift]; p.Jobs != 1 {
		t.Fatalf("grown partition = %+v", p)
	}
}

// TestAtomicHistogramMatchesStats feeds the same observations to the
// lock-free histogram and the plain one and requires identical snapshots.
func TestAtomicHistogramMatchesStats(t *testing.T) {
	edges := []float64{1, 2, 5, 10}
	ah, err := NewAtomicHistogram(edges)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := stats.NewHistogram(edges)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0.5, 1, 1.5, 2, 3, 7, 11, 100, math.NaN(), 0.1}
	for _, v := range vals {
		ah.Observe(v)
		sh.Add(v)
	}
	got := ah.Snapshot()
	if got.N() != sh.N() {
		t.Fatalf("N = %d, want %d", got.N(), sh.N())
	}
	gc, wc := got.Counts(), sh.Counts()
	for i := range wc {
		if gc[i] != wc[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v vs %v)", i, gc[i], wc[i], gc, wc)
		}
	}
	gp, err := got.Percentile(50)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := sh.Percentile(50)
	if err != nil {
		t.Fatal(err)
	}
	if gp != wp {
		t.Fatalf("p50 = %v, want %v", gp, wp)
	}
	if got.Sum() != sh.Sum() {
		t.Fatalf("sum = %v, want %v", got.Sum(), sh.Sum())
	}
}

func TestAtomicHistogramEmptySnapshot(t *testing.T) {
	ah, err := NewAtomicHistogram([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	sh := ah.Snapshot()
	if sh.N() != 0 {
		t.Fatalf("empty snapshot N = %d", sh.N())
	}
}

// TestSeriesConcurrentScrape hammers one series from several observer
// goroutines, single events and sample batches spanning two partitions,
// while a reader snapshots continuously; the final totals must
// be exact, and no intermediate snapshot may panic. Run with -race.
func TestSeriesConcurrentScrape(t *testing.T) {
	s := NewRegistry().Series("vr", "SPEC-Trace-5", 5)
	const writers, perWriter = 4, 5000
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s.SnapshotSeries()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]Event, 3)
			for i := 0; i < perWriter; i++ {
				s.observe(Event{At: time.Duration(i), Kind: KindJobSubmit})
				s.observe(Event{At: time.Duration(i), Kind: KindMigrationComplete, Val: float64(i % 13)})
				s.observe(Event{At: time.Duration(i / 100), Kind: KindNodeSample, Node: int32(w), Aux: 1, Val: 1})
				for k := range batch {
					batch[k] = Event{At: time.Duration(i / 100), Kind: KindNodeSample,
						Node: int32(60 + w + k), Aux: 1, Val: 1}
				}
				s.observeSamples(batch)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if got := s.KindCount(KindJobSubmit); got != writers*perWriter {
		t.Fatalf("job-submit = %d, want %d", got, writers*perWriter)
	}
	if got := s.MigrationLatency().N(); got != writers*perWriter {
		t.Fatalf("migration N = %d, want %d", got, writers*perWriter)
	}
	if got := s.KindCount(KindNodeSample); got != 4*writers*perWriter {
		t.Fatalf("node-sample = %d, want %d", got, 4*writers*perWriter)
	}
}

// TestWritePrometheus checks the exposition rendering end to end on a
// small registry: family headers, label sets, cumulative buckets.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	s := r.Series("vr", "SPEC-Trace-3", 3)
	s.observe(Event{At: time.Second, Kind: KindJobSubmit})
	s.observe(Event{At: time.Second, Kind: KindMigrationComplete, Val: 0.3})
	s.observe(Event{At: time.Second, Kind: KindMigrationComplete, Val: 3})
	s.SetClusterGauges(42*time.Second, 1, 2, 3, 4, 32)
	noLevel := r.Series("baseline", "custom", -1)
	noLevel.observe(Event{At: time.Second, Kind: KindJobDone})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE vr_events_total counter",
		`vr_events_total{policy="vr",trace="SPEC-Trace-3",level="3",kind="job-submit"} 1`,
		`vr_events_total{policy="baseline",trace="custom",kind="job-done"} 1`,
		`vr_virtual_time_seconds{policy="vr",trace="SPEC-Trace-3",level="3"} 42`,
		`vr_live_nodes{policy="vr",trace="SPEC-Trace-3",level="3"} 32`,
		"# TYPE vr_migration_latency_seconds histogram",
		`vr_migration_latency_seconds_bucket{policy="vr",trace="SPEC-Trace-3",level="3",le="0.5"} 1`,
		`vr_migration_latency_seconds_bucket{policy="vr",trace="SPEC-Trace-3",level="3",le="5"} 2`,
		`vr_migration_latency_seconds_bucket{policy="vr",trace="SPEC-Trace-3",level="3",le="+Inf"} 2`,
		`vr_migration_latency_seconds_count{policy="vr",trace="SPEC-Trace-3",level="3"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `trace="custom",level=`) {
		t.Fatal("level label must be omitted when negative")
	}
}
