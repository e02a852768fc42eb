// Streaming metrics: a registry of labeled series fed incrementally from
// the tracer event stream. Every update on the simulation's hot path is a
// handful of atomic operations — no locks, no allocation once the series'
// backing arrays exist — so a scrape from the HTTP exporter can read a
// consistent-enough view concurrently while the simulation runs
// faster than real time. A Series carries the (policy, trace, level)
// label dimensions; per-partition gauges add the partition dimension on
// top, mirroring the load board's 64-node partitioning.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vrcluster/internal/stats"
)

// partitionShift groups nodes into telemetry partitions of 64, matching
// loadinfo.PartitionSize so partition-labeled gauges line up with the
// sharded board's aggregation units.
const partitionShift = 6

// Registry holds every live metrics series, keyed by (policy, trace,
// level). Registration takes a mutex once per run; all per-event updates
// go straight to the Series atomics.
type Registry struct {
	mu     sync.Mutex
	series []*Series
	index  map[seriesKey]*Series
}

type seriesKey struct {
	policy, trace string
	level         int
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[seriesKey]*Series)}
}

// Series returns the series for the given labels, creating it on first
// use. Level < 0 means "no level dimension" (exports omit the label).
// Repeated runs with the same labels aggregate into one series.
func (r *Registry) Series(policy, trace string, level int) *Series {
	if level < 0 {
		level = -1
	}
	key := seriesKey{policy: policy, trace: trace, level: level}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.index[key]; ok {
		return s
	}
	s := newSeries(policy, trace, level)
	r.index[key] = s
	r.series = append(r.series, s)
	return s
}

// Each visits every registered series in registration order. The slice is
// copied under the lock so the callback may register further series.
func (r *Registry) Each(fn func(*Series)) {
	r.mu.Lock()
	all := make([]*Series, len(r.series))
	copy(all, r.series)
	r.mu.Unlock()
	for _, s := range all {
		fn(s)
	}
}

// Len reports the number of registered series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.series)
}

// ReconfigStats is the reconfiguration manager's cumulative decision
// counters, pushed into a Series every control period. It mirrors
// core.Stats without importing it (core imports obs).
type ReconfigStats struct {
	BlockedEvents   int64 `json:"blocked_events"`
	Started         int64 `json:"started"`
	Matured         int64 `json:"matured"`
	ReleasedEarly   int64 `json:"released_early"`
	TimedOut        int64 `json:"timed_out"`
	LeaseExpired    int64 `json:"lease_expired"`
	LeaseReselected int64 `json:"lease_reselected"`
	CapReached      int64 `json:"cap_reached"`
	NoCandidate     int64 `json:"no_candidate"`
}

// Default histogram edges, in seconds. Migration latencies span sub-second
// wire transfers up to the netlink worst case; episodes and reservation
// holds run from one control period up to minutes.
var (
	migrationEdges   = []float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60, 120}
	episodeEdges     = []float64{0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600}
	reservationEdges = []float64{1, 2, 5, 10, 30, 60, 120, 300, 600, 1800}
)

// Series is one labeled metrics stream: per-kind event counters, cluster
// gauges, reconfiguration counters, per-partition load gauges, and
// latency histograms, all updated with atomic operations only.
type Series struct {
	policy string
	trace  string
	level  int // -1 when the label does not apply

	kinds [kindCount]atomic.Uint64

	// Cluster gauges, set wholesale at every sample tick.
	virtualNanos    atomic.Int64
	pendingJobs     atomic.Int64
	outstandingJobs atomic.Int64
	activeNodes     atomic.Int64
	pressuredNodes  atomic.Int64
	liveNodes       atomic.Int64

	// Gauges derived from the event stream itself.
	reservedNodes atomic.Int64
	episodesOpen  atomic.Int64

	reconfig [9]atomic.Int64 // mirrors ReconfigStats field order

	// Histograms fed from event payloads: migration completions carry the
	// total transfer cost, episode closes the episode length, reservation
	// releases the held duration — no pairing state needed.
	migrationLatency *AtomicHistogram
	episodeDuration  *AtomicHistogram
	reservationHold  *AtomicHistogram

	// Per-partition gauges rebuilt from the node sample stream. The
	// arrays grow when a node join pushes the partition count up; growth
	// swaps in a fresh state under growMu while readers keep the old one.
	parts  atomic.Pointer[partitionState]
	growMu sync.Mutex
}

func newSeries(policy, trace string, level int) *Series {
	s := &Series{policy: policy, trace: trace, level: level}
	s.migrationLatency = mustAtomicHistogram(migrationEdges)
	s.episodeDuration = mustAtomicHistogram(episodeEdges)
	s.reservationHold = mustAtomicHistogram(reservationEdges)
	return s
}

func mustAtomicHistogram(edges []float64) *AtomicHistogram {
	h, err := NewAtomicHistogram(edges)
	if err != nil {
		panic(err) // static edges, cannot fail
	}
	return h
}

// Policy returns the policy label.
func (s *Series) Policy() string { return s.policy }

// TraceName returns the trace label.
func (s *Series) TraceName() string { return s.trace }

// Level returns the level label, -1 when absent.
func (s *Series) Level() int { return s.level }

// KindCount reports how many events of kind k have been observed.
func (s *Series) KindCount(k Kind) uint64 {
	if k >= kindCount {
		return 0
	}
	return s.kinds[k].Load()
}

// MigrationLatency returns the migration-latency histogram (seconds).
func (s *Series) MigrationLatency() *AtomicHistogram { return s.migrationLatency }

// EpisodeDuration returns the blocking-episode histogram (seconds).
func (s *Series) EpisodeDuration() *AtomicHistogram { return s.episodeDuration }

// ReservationHold returns the reservation-hold histogram (seconds).
func (s *Series) ReservationHold() *AtomicHistogram { return s.reservationHold }

// observe folds one event into the series. Called from Tracer.Emit on the
// simulation goroutine; safe against concurrent observers and scrapes.
func (s *Series) observe(ev Event) {
	if ev.Kind < kindCount {
		s.kinds[ev.Kind].Add(1)
	}
	switch ev.Kind {
	case KindMigrationComplete:
		s.migrationLatency.Observe(ev.Val)
	case KindEpisodeOpen:
		s.episodesOpen.Add(1)
	case KindEpisodeClose:
		s.episodeDuration.Observe(ev.Val)
		s.episodesOpen.Add(-1)
	case KindReserveAcquire:
		s.reservedNodes.Add(1)
	case KindReserveRelease:
		s.reservationHold.Observe(ev.Val)
		s.reservedNodes.Add(-1)
	case KindNodeSample:
		s.foldSamples([]Event{ev})
	}
}

// SetClusterGauges updates the whole-cluster gauges. The cluster calls it
// once per sample tick from the simulation goroutine.
func (s *Series) SetClusterGauges(now time.Duration, pending, outstanding, active, pressured, live int) {
	if s == nil {
		return
	}
	s.virtualNanos.Store(now.Nanoseconds())
	s.pendingJobs.Store(int64(pending))
	s.outstandingJobs.Store(int64(outstanding))
	s.activeNodes.Store(int64(active))
	s.pressuredNodes.Store(int64(pressured))
	s.liveNodes.Store(int64(live))
}

// SetReconfigStats replaces the reconfiguration counters. The manager
// pushes its cumulative stats every control period.
func (s *Series) SetReconfigStats(rs ReconfigStats) {
	if s == nil {
		return
	}
	s.reconfig[0].Store(rs.BlockedEvents)
	s.reconfig[1].Store(rs.Started)
	s.reconfig[2].Store(rs.Matured)
	s.reconfig[3].Store(rs.ReleasedEarly)
	s.reconfig[4].Store(rs.TimedOut)
	s.reconfig[5].Store(rs.LeaseExpired)
	s.reconfig[6].Store(rs.LeaseReselected)
	s.reconfig[7].Store(rs.CapReached)
	s.reconfig[8].Store(rs.NoCandidate)
}

// reconfigStats reads the counters back as a value.
func (s *Series) reconfigStats() ReconfigStats {
	return ReconfigStats{
		BlockedEvents:   s.reconfig[0].Load(),
		Started:         s.reconfig[1].Load(),
		Matured:         s.reconfig[2].Load(),
		ReleasedEarly:   s.reconfig[3].Load(),
		TimedOut:        s.reconfig[4].Load(),
		LeaseExpired:    s.reconfig[5].Load(),
		LeaseReselected: s.reconfig[6].Load(),
		CapReached:      s.reconfig[7].Load(),
		NoCandidate:     s.reconfig[8].Load(),
	}
}

// partitionState carries per-partition accumulators. Elements are updated
// with the atomic package functions (plain word types, so the arrays can
// be copied during growth); `at` marks the sample tick a partition's
// accumulation belongs to, letting the first sample of a new tick reset
// the sums without any end-of-tick callback.
type partitionState struct {
	at      []int64  // virtual nanos of the tick being accumulated
	jobs    []int64  // resident jobs summed over the partition's samples
	idleBit []uint64 // idle MB summed, as float64 bits
}

// observeSamples folds a batch of KindNodeSample events (Tracer.
// EmitSamples) with one kind-counter add for the whole batch.
func (s *Series) observeSamples(evs []Event) {
	s.kinds[KindNodeSample].Add(uint64(len(evs)))
	s.foldSamples(evs)
}

// foldSamples folds samples into their partitions' gauges, one publish per
// run of consecutive samples that share a partition and an instant.
func (s *Series) foldSamples(evs []Event) {
	for i := 0; i < len(evs); {
		first := evs[i]
		if first.Node < 0 {
			i++
			continue
		}
		idx := int(first.Node) >> partitionShift
		j := i + 1
		for j < len(evs) && evs[j].Node >= 0 && int(evs[j].Node)>>partitionShift == idx && evs[j].At == first.At {
			j++
		}
		s.publishRun(idx, int64(first.At), evs[i:j])
		i = j
	}
}

// publishRun folds one partition's run of samples at virtual time now.
// The run's idle memory is summed in emission order, starting from the
// value its first sample finds, so the gauges are bit-equal to folding the
// samples one at a time.
func (s *Series) publishRun(idx int, now int64, run []Event) {
	p := s.parts.Load()
	if p == nil || idx >= len(p.at) {
		p = s.growParts(idx)
	}
	var jobs int64
	for _, ev := range run {
		jobs += int64(ev.Aux)
	}
	if atomic.LoadInt64(&p.at[idx]) != now {
		// The run opens this partition's tick: its sums replace the old.
		idle := run[0].Val
		for _, ev := range run[1:] {
			idle += ev.Val
		}
		atomic.StoreInt64(&p.at[idx], now)
		atomic.StoreInt64(&p.jobs[idx], jobs)
		atomic.StoreUint64(&p.idleBit[idx], math.Float64bits(idle))
		return
	}
	atomic.AddInt64(&p.jobs[idx], jobs)
	for {
		o := atomic.LoadUint64(&p.idleBit[idx])
		idle := math.Float64frombits(o)
		for _, ev := range run {
			idle += ev.Val
		}
		if atomic.CompareAndSwapUint64(&p.idleBit[idx], o, math.Float64bits(idle)) {
			return
		}
	}
}

// growParts publishes a partition state wide enough for partition idx,
// carrying existing values over. Growth is rare (node joins), so the
// mutex is off every hot path.
func (s *Series) growParts(idx int) *partitionState {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	p := s.parts.Load()
	if p != nil && idx < len(p.at) {
		return p
	}
	n := 1
	for n <= idx {
		n *= 2
	}
	np := &partitionState{
		at:      make([]int64, n),
		jobs:    make([]int64, n),
		idleBit: make([]uint64, n),
	}
	if p != nil {
		for i := range p.at {
			np.at[i] = atomic.LoadInt64(&p.at[i])
			np.jobs[i] = atomic.LoadInt64(&p.jobs[i])
			np.idleBit[i] = atomic.LoadUint64(&p.idleBit[i])
		}
	}
	s.parts.Store(np)
	return np
}

// PartitionGauge is one partition's latest accumulated sample.
type PartitionGauge struct {
	Partition int     `json:"partition"`
	Jobs      int64   `json:"jobs"`
	IdleMB    float64 `json:"idle_mb"`
}

// Partitions snapshots the per-partition gauges in partition order.
func (s *Series) Partitions() []PartitionGauge {
	p := s.parts.Load()
	if p == nil {
		return nil
	}
	out := make([]PartitionGauge, 0, len(p.at))
	for i := range p.at {
		out = append(out, PartitionGauge{
			Partition: i,
			Jobs:      atomic.LoadInt64(&p.jobs[i]),
			IdleMB:    math.Float64frombits(atomic.LoadUint64(&p.idleBit[i])),
		})
	}
	return out
}

// AtomicHistogram is a fixed-bucket histogram whose observation path is
// lock-free and allocation-free: a binary search plus four atomic updates.
// Snapshots convert to a stats.Histogram so percentile estimation and
// rendering are shared with the offline summarizers.
type AtomicHistogram struct {
	edges  []float64
	counts []uint64 // updated via atomic package functions
	n      atomic.Uint64
	sumBit atomic.Uint64 // float64 bits, CAS-added
	minBit atomic.Uint64 // float64 bits, starts at +Inf
	maxBit atomic.Uint64 // float64 bits, starts at -Inf
}

// NewAtomicHistogram builds a histogram over ascending finite edges
// (validated with the same rules as stats.NewHistogram).
func NewAtomicHistogram(edges []float64) (*AtomicHistogram, error) {
	if _, err := stats.NewHistogram(edges); err != nil {
		return nil, err
	}
	h := &AtomicHistogram{
		edges:  append([]float64(nil), edges...),
		counts: make([]uint64, len(edges)+1),
	}
	h.minBit.Store(math.Float64bits(math.Inf(1)))
	h.maxBit.Store(math.Float64bits(math.Inf(-1)))
	return h, nil
}

// Observe folds one observation in. NaN observations are ignored, mirroring
// stats.Histogram.Add.
func (h *AtomicHistogram) Observe(x float64) {
	if h == nil || math.IsNaN(x) {
		return
	}
	h.n.Add(1)
	for {
		o := h.sumBit.Load()
		nb := math.Float64bits(math.Float64frombits(o) + x)
		if h.sumBit.CompareAndSwap(o, nb) {
			break
		}
	}
	for {
		o := h.minBit.Load()
		if x >= math.Float64frombits(o) {
			break
		}
		if h.minBit.CompareAndSwap(o, math.Float64bits(x)) {
			break
		}
	}
	for {
		o := h.maxBit.Load()
		if x <= math.Float64frombits(o) {
			break
		}
		if h.maxBit.CompareAndSwap(o, math.Float64bits(x)) {
			break
		}
	}
	lo, hi := 0, len(h.edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.edges[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	atomic.AddUint64(&h.counts[lo], 1)
}

// N reports the number of observations.
func (h *AtomicHistogram) N() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Snapshot converts the live histogram into a stats.Histogram for
// percentile estimation and rendering. The copy is not atomic across
// buckets; a scrape concurrent with observations sees a histogram that is
// valid but may straddle an in-flight update, which is the usual
// monitoring contract. The observation count is taken as the bucket sum
// so the snapshot is always internally consistent.
func (h *AtomicHistogram) Snapshot() *stats.Histogram {
	counts := make([]int, len(h.counts))
	for i := range h.counts {
		counts[i] = int(atomic.LoadUint64(&h.counts[i]))
	}
	min := math.Float64frombits(h.minBit.Load())
	max := math.Float64frombits(h.maxBit.Load())
	sh, err := stats.HistogramFromCounts(h.edges, counts, math.Float64frombits(h.sumBit.Load()), min, max)
	if err != nil {
		// Only reachable through a torn concurrent read (e.g. min observed
		// after the count); retry once with a fresh view, then fall back
		// to an empty histogram rather than panicking a scrape.
		sh, err = stats.HistogramFromCounts(h.edges, counts, math.Float64frombits(h.sumBit.Load()),
			math.Float64frombits(h.minBit.Load()), math.Float64frombits(h.maxBit.Load()))
		if err != nil {
			sh, _ = stats.NewHistogram(h.edges)
		}
	}
	return sh
}
