// Package metrics collects and summarizes the performance measures the
// paper reports: per-job slowdown, total execution time and its Section 5
// breakdown, total queuing time, the average total idle memory volume
// (sampled every second, with the paper's multi-interval insensitivity
// check), and the average job balance skew across non-reserved
// workstations.
package metrics

import (
	"errors"
	"fmt"
	"io"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/obs"
	"vrcluster/internal/stats"
)

// Sample is one periodic observation of cluster state.
type Sample struct {
	At       time.Duration
	IdleMB   float64 // total idle memory across the cluster
	Skew     float64 // stddev of active-job counts over non-reserved nodes
	Running  int     // jobs resident on workstations
	Pending  int     // submissions blocked cluster-wide
	Reserved int     // workstations under reservation
}

// chunkLen is the number of samples in one chunk of a series.
const chunkLen = 512

// chunk is one full stretch of a sample series.
type chunk [chunkLen]Sample

// series is a sample series stored as sealed chunks plus a tail. A sealed
// chunk is full and never written again, so every Snapshot and Clone holds
// it by reference. The tail (fewer than chunkLen samples) is written in
// place only while own backs it; a copied tail is read-only, and the next
// Observe moves it into a chunk first.
type series struct {
	sealed []*chunk
	tail   []Sample
	own    *chunk   // backs tail while this series may write it in place
	shared int      // sealed[:shared] have been handed to a Snapshot or Clone
	spare  []*chunk // chunks sealed and then rewound away unshared, for reuse
}

// len reports the number of samples in the series.
func (s *series) len() int { return len(s.sealed)*chunkLen + len(s.tail) }

// at returns the i-th sample.
func (s *series) at(i int) *Sample {
	if k := i / chunkLen; k < len(s.sealed) {
		return &s.sealed[k][i%chunkLen]
	}
	return &s.tail[i-len(s.sealed)*chunkLen]
}

// push appends one sample, sealing the tail once it is full.
func (s *series) push(v Sample) {
	if s.own == nil {
		s.own = s.take()
		s.tail = append(s.own[:0], s.tail...)
	}
	s.tail = append(s.tail, v)
	if len(s.tail) == chunkLen {
		s.sealed = append(s.sealed, s.own)
		s.own, s.tail = nil, nil
	}
}

// take returns a chunk no Snapshot or Clone holds: a spare if there is one.
func (s *series) take() *chunk {
	if n := len(s.spare); n > 0 {
		ch := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return ch
	}
	return new(chunk)
}

// share returns a copy of the series that reads the same samples: the
// sealed chunks by reference, the tail copied. Every chunk sealed so far
// is marked shared, so no later rewind reuses it.
func (s *series) share() series {
	s.shared = len(s.sealed)
	return series{
		sealed: append([]*chunk(nil), s.sealed...),
		tail:   append([]Sample(nil), s.tail...),
		shared: len(s.sealed),
	}
}

// rewind makes the series read the same samples as from, a series built by
// share. It reuses the live pointer slice and tail chunk, and keeps the
// chunks it sealed since the last share as spares: nothing else holds
// them.
func (s *series) rewind(from *series) {
	s.spare = append(s.spare, s.sealed[s.shared:]...)
	s.sealed = append(s.sealed[:0], from.sealed...)
	s.shared = len(s.sealed)
	if len(from.tail) > 0 && s.own == nil {
		s.own = s.take()
	}
	if s.own == nil {
		s.tail = nil
		return
	}
	s.tail = append(s.own[:0], from.tail...)
}

// Collector accumulates samples and event counters during a run.
type Collector struct {
	interval time.Duration
	samples  series
	scratch  []float64 // Observe's per-sample job-count buffer, reused across ticks

	// Event counters maintained by the cluster and policies.
	BlockingEpisodes  int
	Reservations      int
	ReservationTime   time.Duration
	ReservedMigration int // jobs migrated into reserved workstations
	Migrations        int
	RemoteSubmissions int
	FailedLandings    int
	PendingPeak       int
	Suspensions       int

	// Fault-injection and self-healing counters (internal/faults).
	NodeCrashes       int // workstation failures injected
	NodeRecoveries    int // workstation repairs
	JobsKilled        int // jobs lost to crashes under the kill policy
	JobsRequeued      int // jobs resubmitted after crashes
	RefreshDrops      int // load-information exchanges lost (stale vectors)
	MigrationAborts   int // transfer attempts that died on the wire
	MigrationRetries  int // backoff retries of aborted transfers
	MigrationGiveUps  int // transfers abandoned after the retry budget
	LeaseExpiries     int // reservation leases released by timeout or crash
	LeaseReselections int // leases re-established on the next candidate
	DegradedLocal     int // blocked jobs degraded to local paging
	DegradedAdmits    int // pending submissions force-admitted past the wait bound

	// Elastic-membership and correlated-fault counters.
	NodesJoined      int // workstations added at runtime
	NodesDrained     int // graceful drains started
	NodesRemoved     int // drained workstations retired
	DrainMigrations  int // resident jobs migrated off draining workstations
	DomainPartitions int // domain-wide network partitions injected
	AutoscaleUps     int // autoscaler join decisions
	AutoscaleDowns   int // autoscaler drain decisions
}

// DefaultSampleInterval matches the paper's 1-second collection of idle
// memory volume and active-job counts.
const DefaultSampleInterval = time.Second

// NewCollector builds a collector sampling at the given interval.
func NewCollector(interval time.Duration) (*Collector, error) {
	if interval <= 0 {
		return nil, errors.New("metrics: sample interval must be positive")
	}
	return &Collector{interval: interval}, nil
}

// Interval reports the sampling period.
func (c *Collector) Interval() time.Duration { return c.interval }

// Observe records one sample of the cluster at virtual time now from the
// per-node sample batch (one obs.KindNodeSample event per live workstation,
// in node order: Val its idle memory, Aux its resident jobs, Flags its
// reserved bit). pending is the number of submissions currently blocked
// cluster-wide.
func (c *Collector) Observe(now time.Duration, samples []obs.Event, pending int) {
	idle := 0.0
	running, reserved := 0, 0
	counts := c.scratch[:0]
	for i := range samples {
		s := &samples[i]
		idle += s.Val
		running += int(s.Aux)
		if s.Flags&obs.FlagReserved != 0 {
			reserved++
			continue
		}
		counts = append(counts, float64(s.Aux))
	}
	c.samples.push(Sample{
		At:       now,
		IdleMB:   idle,
		Skew:     stats.StdDev(counts),
		Running:  running,
		Pending:  pending,
		Reserved: reserved,
	})
	c.scratch = counts[:0]
}

// CollectorSnapshot captures the collector's counters and sample series for
// cluster forking.
type CollectorSnapshot struct {
	state Collector // every counter field, and the series as share left it
}

// Snapshot captures the collector's state. It shares the sealed chunks of
// the series and copies only the tail.
func (c *Collector) Snapshot() *CollectorSnapshot {
	s := &CollectorSnapshot{state: *c}
	s.state.samples = c.samples.share()
	return s
}

// Restore rewinds the collector to a prior Snapshot. It copies at most the
// snapshot's tail, into the live tail chunk.
func (c *Collector) Restore(s *CollectorSnapshot) {
	samples, scratch := c.samples, c.scratch
	*c = s.state
	samples.rewind(&s.state.samples)
	c.samples, c.scratch = samples, scratch
}

// Clone returns an independent copy. Forked runs freeze their result
// against a clone so the shared live collector can be rewound and reused
// without mutating earlier results; the clone shares the sealed chunks of
// the series, which neither side writes again.
func (c *Collector) Clone() *Collector {
	out := *c
	out.samples = c.samples.share()
	out.scratch = nil
	return &out
}

// WriteCSV emits the sample series as CSV with a header row, for external
// plotting of a run's evolution.
func (c *Collector) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "seconds,idle_mb,skew,running,pending,reserved"); err != nil {
		return err
	}
	for i := range c.samples.len() {
		s := c.samples.at(i)
		if _, err := fmt.Fprintf(w, "%.3f,%.3f,%.4f,%d,%d,%d\n",
			s.At.Seconds(), s.IdleMB, s.Skew, s.Running, s.Pending, s.Reserved); err != nil {
			return err
		}
	}
	return nil
}

// Samples returns a copy of the recorded series.
func (c *Collector) Samples() []Sample {
	out := make([]Sample, 0, c.samples.len())
	for _, ch := range c.samples.sealed {
		out = append(out, ch[:]...)
	}
	return append(out, c.samples.tail...)
}

// AvgIdleMB averages the idle-memory series, subsampled at a multiple of
// the base interval (every is rounded down to a whole number of base
// samples; the paper verifies that 1 s, 10 s, 30 s, and 1 min intervals
// yield nearly identical averages).
func (c *Collector) AvgIdleMB(every time.Duration) (float64, error) {
	return c.avg(every, func(s Sample) float64 { return s.IdleMB })
}

// AvgSkew averages the job-balance-skew series at the given interval.
func (c *Collector) AvgSkew(every time.Duration) (float64, error) {
	return c.avg(every, func(s Sample) float64 { return s.Skew })
}

func (c *Collector) avg(every time.Duration, f func(Sample) float64) (float64, error) {
	n := c.samples.len()
	if n == 0 {
		return 0, errors.New("metrics: no samples recorded")
	}
	step := int(every / c.interval)
	if step < 1 {
		return 0, fmt.Errorf("metrics: interval %v below base %v", every, c.interval)
	}
	var o stats.Online
	for i := 0; i < n; i += step {
		o.Add(f(*c.samples.at(i)))
	}
	return o.Mean(), nil
}

// Result is the summary of one simulation run.
type Result struct {
	Trace  string
	Policy string
	Jobs   int

	// Completed and Killed partition Jobs under a fault plan whose crash
	// policy kills work; without faults Completed == Jobs.
	Completed int
	Killed    int

	// Totals over all jobs (the Section 5 quantities): TotalExec is
	// sum of per-job wall-clock execution times and decomposes into the
	// four components.
	TotalExec  time.Duration
	TotalCPU   time.Duration
	TotalPage  time.Duration
	TotalQueue time.Duration
	TotalMig   time.Duration

	// TotalStartWait is the share of TotalQueue spent waiting for first
	// admission (blocked submissions and remote submission latency); the
	// remainder is round-robin CPU-sharing delay on the workstations.
	TotalStartWait time.Duration

	MeanSlowdown float64
	MaxSlowdown  float64
	Makespan     time.Duration // completion time of the last job

	AvgIdleMB float64 // at the base 1 s interval
	AvgSkew   float64

	BlockingEpisodes  int
	Reservations      int
	ReservationTime   time.Duration
	ReservedMigration int
	Migrations        int
	RemoteSubmissions int
	FailedLandings    int
	PendingPeak       int
	Suspensions       int

	NodeCrashes       int
	NodeRecoveries    int
	JobsRequeued      int
	RefreshDrops      int
	MigrationAborts   int
	MigrationRetries  int
	MigrationGiveUps  int
	LeaseExpiries     int
	LeaseReselections int
	DegradedLocal     int
	DegradedAdmits    int

	NodesJoined      int
	NodesDrained     int
	NodesRemoved     int
	DrainMigrations  int
	DomainPartitions int
	AutoscaleUps     int
	AutoscaleDowns   int

	collector *Collector
}

// BuildResult summarizes completed jobs plus the collector's samples. Every
// job must be terminal: done, or killed by an injected workstation crash.
// Killed jobs contribute their consumed time to the totals (the cluster
// really spent it) but are excluded from the per-job slowdown statistics,
// which are defined only for completed work.
func BuildResult(traceName, policy string, jobs []*job.Job, col *Collector) (*Result, error) {
	if len(jobs) == 0 {
		return nil, errors.New("metrics: no jobs to summarize")
	}
	r := &Result{Trace: traceName, Policy: policy, Jobs: len(jobs), collector: col}
	var slow stats.Online
	for _, j := range jobs {
		switch j.State() {
		case job.StateDone:
			r.Completed++
		case job.StateKilled:
			r.Killed++
			b := j.Breakdown()
			r.TotalCPU += b.CPU
			r.TotalPage += b.Page
			r.TotalQueue += b.Queue
			r.TotalMig += b.Migration
			if at, err := j.KilledAt(); err == nil {
				r.TotalExec += at - j.SubmitAt
				if at > r.Makespan {
					r.Makespan = at
				}
			}
			continue
		default:
			return nil, fmt.Errorf("metrics: job %d not terminal (%v)", j.ID, j.State())
		}
		b := j.Breakdown()
		r.TotalCPU += b.CPU
		r.TotalPage += b.Page
		r.TotalQueue += b.Queue
		r.TotalMig += b.Migration
		w, err := j.WallTime()
		if err != nil {
			return nil, err
		}
		r.TotalExec += w
		r.TotalStartWait += j.StartWait()
		s, err := j.Slowdown()
		if err != nil {
			return nil, err
		}
		slow.Add(s)
		if done, err := j.DoneAt(); err == nil && done > r.Makespan {
			r.Makespan = done
		}
	}
	if slow.N() > 0 {
		r.MeanSlowdown = slow.Mean()
		r.MaxSlowdown = slow.Max()
	}
	if col != nil {
		idle, err := col.AvgIdleMB(col.Interval())
		if err != nil {
			return nil, err
		}
		r.AvgIdleMB = idle
		skew, err := col.AvgSkew(col.Interval())
		if err != nil {
			return nil, err
		}
		r.AvgSkew = skew
		r.BlockingEpisodes = col.BlockingEpisodes
		r.Reservations = col.Reservations
		r.ReservationTime = col.ReservationTime
		r.ReservedMigration = col.ReservedMigration
		r.Migrations = col.Migrations
		r.RemoteSubmissions = col.RemoteSubmissions
		r.FailedLandings = col.FailedLandings
		r.PendingPeak = col.PendingPeak
		r.Suspensions = col.Suspensions
		r.NodeCrashes = col.NodeCrashes
		r.NodeRecoveries = col.NodeRecoveries
		r.JobsRequeued = col.JobsRequeued
		r.RefreshDrops = col.RefreshDrops
		r.MigrationAborts = col.MigrationAborts
		r.MigrationRetries = col.MigrationRetries
		r.MigrationGiveUps = col.MigrationGiveUps
		r.LeaseExpiries = col.LeaseExpiries
		r.LeaseReselections = col.LeaseReselections
		r.DegradedLocal = col.DegradedLocal
		r.DegradedAdmits = col.DegradedAdmits
		r.NodesJoined = col.NodesJoined
		r.NodesDrained = col.NodesDrained
		r.NodesRemoved = col.NodesRemoved
		r.DrainMigrations = col.DrainMigrations
		r.DomainPartitions = col.DomainPartitions
		r.AutoscaleUps = col.AutoscaleUps
		r.AutoscaleDowns = col.AutoscaleDowns
		if r.Killed != col.JobsKilled {
			return nil, fmt.Errorf("metrics: %d killed jobs but %d kill events counted", r.Killed, col.JobsKilled)
		}
	}
	return r, nil
}

// Collector exposes the collector for interval-insensitivity analyses.
func (r *Result) Collector() *Collector { return r.collector }

// WriteJobsCSV emits one row per completed job — its Section 5 breakdown,
// wall time, slowdown, and migration count — for external analysis.
func WriteJobsCSV(w io.Writer, jobs []*job.Job) error {
	if _, err := fmt.Fprintln(w, "job,program,submit_s,wall_s,cpu_s,page_s,queue_s,migration_s,slowdown,migrations"); err != nil {
		return err
	}
	for _, j := range jobs {
		if j.State() == job.StateKilled {
			// Killed jobs have no completion; per-job rows cover
			// completed work only.
			continue
		}
		if j.State() != job.StateDone {
			return fmt.Errorf("metrics: job %d not done (%v)", j.ID, j.State())
		}
		wall, err := j.WallTime()
		if err != nil {
			return err
		}
		slow, err := j.Slowdown()
		if err != nil {
			return err
		}
		b := j.Breakdown()
		if _, err := fmt.Fprintf(w, "%d,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%d\n",
			j.ID, j.Program, j.SubmitAt.Seconds(), wall.Seconds(),
			b.CPU.Seconds(), b.Page.Seconds(), b.Queue.Seconds(), b.Migration.Seconds(),
			slow, j.Migrations()); err != nil {
			return err
		}
	}
	return nil
}

// Reduction reports the relative improvement of got over base for a metric
// extracted by f: (base - got) / base. Positive values mean got is better
// (smaller).
func Reduction(base, got float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - got) / base
}
