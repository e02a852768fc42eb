// Package record reproduces the paper's kernel-level tracing facility
// (Section 3.1): during a run it samples, for every job and at a fixed
// interval (10 ms in the paper), the execution activities the authors'
// instrumentation captured — CPU service received, paging delay, queuing
// delay, current memory demand, and the hosting workstation — preceded by
// a header item recording the submission time, job ID, and lifetime.
//
// Recorded logs serialize to JSON and can be turned back into replayable
// workload traces (see trace.FromLog), closing the paper's trace-driven
// methodology loop: measure an execution, then replay it against other
// scheduling policies.
package record

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"vrcluster/internal/job"
)

// Activity is one sampling interval's measurements for one job.
type Activity struct {
	OffsetMillis int64   `json:"offsetMillis"` // since the job's submission
	CPUMicros    int64   `json:"cpuMicros"`
	PageMicros   int64   `json:"pageMicros"`
	QueueMicros  int64   `json:"queueMicros"`
	MemoryMB     float64 `json:"memoryMB"`
	Node         int     `json:"node"` // -1 while pending or migrating
}

// Header is the per-job header item of the paper's trace format.
type Header struct {
	JobID        int     `json:"jobId"`
	Program      string  `json:"program"`
	SubmitMillis int64   `json:"submitMillis"`
	CPUMillis    int64   `json:"cpuMillis"` // dedicated-environment lifetime
	WorkingSetMB float64 `json:"workingSetMB"`
	IORateMBps   float64 `json:"ioRateMBps"`
	Home         int     `json:"home"`
}

// JobTrace is one job's header plus its activity records.
type JobTrace struct {
	Header     Header     `json:"header"`
	Activities []Activity `json:"activities"`
}

// Log is a whole run's recording.
type Log struct {
	Name           string        `json:"name"`
	IntervalMillis int64         `json:"intervalMillis"`
	Nodes          int           `json:"nodes"`
	Jobs           []*JobTrace   `json:"jobs"`
	Span           time.Duration `json:"spanNanos"`
}

// Recorder samples a fixed set of jobs on a fixed interval.
type Recorder struct {
	log      *Log
	interval time.Duration
	byID     map[int]*JobTrace
	lastAcct map[int]job.Breakdown
	tracked  []*job.Job
}

// DefaultInterval is the paper's 10 ms record granularity.
const DefaultInterval = 10 * time.Millisecond

// NewRecorder builds a recorder for the given jobs. homes maps each job ID
// to its home workstation (used when re-deriving a trace); nil means home
// 0 for every job.
func NewRecorder(name string, interval time.Duration, nodes int, jobs []*job.Job, homes map[int]int) (*Recorder, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("record: interval %v must be positive", interval)
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("record: node count %d must be positive", nodes)
	}
	if len(jobs) == 0 {
		return nil, errors.New("record: no jobs to track")
	}
	r := &Recorder{
		log: &Log{
			Name:           name,
			IntervalMillis: interval.Milliseconds(),
			Nodes:          nodes,
		},
		interval: interval,
		byID:     make(map[int]*JobTrace, len(jobs)),
		lastAcct: make(map[int]job.Breakdown, len(jobs)),
		tracked:  jobs,
	}
	for _, j := range jobs {
		home := 0
		if homes != nil {
			home = homes[j.ID]
		}
		jt := &JobTrace{Header: Header{
			JobID:        j.ID,
			Program:      j.Program,
			SubmitMillis: j.SubmitAt.Milliseconds(),
			CPUMillis:    j.CPUDemand.Milliseconds(),
			WorkingSetMB: j.PeakMemoryMB(),
			IORateMBps:   j.IORate(),
			Home:         home,
		}}
		if _, dup := r.byID[j.ID]; dup {
			return nil, fmt.Errorf("record: duplicate job ID %d", j.ID)
		}
		r.byID[j.ID] = jt
		r.log.Jobs = append(r.log.Jobs, jt)
	}
	return r, nil
}

// Interval reports the sampling granularity.
func (r *Recorder) Interval() time.Duration { return r.interval }

// Observe appends one activity record per live job, capturing the delta of
// its time breakdown since the previous observation.
func (r *Recorder) Observe(now time.Duration) {
	if now > r.log.Span {
		r.log.Span = now
	}
	for _, j := range r.tracked {
		if j.State() == job.StatePending {
			continue
		}
		acct := j.Breakdown()
		prev := r.lastAcct[j.ID]
		delta := job.Breakdown{
			CPU:   acct.CPU - prev.CPU,
			Page:  acct.Page - prev.Page,
			Queue: acct.Queue - prev.Queue,
		}
		if delta.CPU == 0 && delta.Page == 0 && delta.Queue == 0 && j.State() == job.StateDone {
			continue // fully recorded
		}
		r.lastAcct[j.ID] = acct
		jt := r.byID[j.ID]
		jt.Activities = append(jt.Activities, Activity{
			OffsetMillis: (now - j.SubmitAt).Milliseconds(),
			CPUMicros:    delta.CPU.Microseconds(),
			PageMicros:   delta.Page.Microseconds(),
			QueueMicros:  delta.Queue.Microseconds(),
			MemoryMB:     j.MemoryDemandMB(),
			Node:         j.Node(),
		})
	}
}

// Log returns the recording.
func (r *Recorder) Log() *Log { return r.log }

// Encode writes the log as JSON.
func (l *Log) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(l); err != nil {
		return fmt.Errorf("record: encode: %w", err)
	}
	return nil
}

// Decode reads a JSON log and validates it.
func Decode(r io.Reader) (*Log, error) {
	var l Log
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("record: decode: %w", err)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &l, nil
}

// Validate checks structural consistency.
func (l *Log) Validate() error {
	if l.IntervalMillis <= 0 {
		return fmt.Errorf("record: interval %dms must be positive", l.IntervalMillis)
	}
	if l.Nodes <= 0 {
		return fmt.Errorf("record: node count %d must be positive", l.Nodes)
	}
	seen := make(map[int]bool, len(l.Jobs))
	for i, jt := range l.Jobs {
		if jt == nil {
			return fmt.Errorf("record: job %d is null", i)
		}
		if seen[jt.Header.JobID] {
			return fmt.Errorf("record: duplicate job %d", jt.Header.JobID)
		}
		seen[jt.Header.JobID] = true
		if jt.Header.CPUMillis <= 0 {
			return fmt.Errorf("record: job %d nonpositive lifetime", jt.Header.JobID)
		}
		if jt.Header.Home < 0 || jt.Header.Home >= l.Nodes {
			return fmt.Errorf("record: job %d home %d out of range", jt.Header.JobID, jt.Header.Home)
		}
		prev := int64(-1)
		for i, a := range jt.Activities {
			if a.OffsetMillis < prev {
				return fmt.Errorf("record: job %d activity %d out of order", jt.Header.JobID, i)
			}
			prev = a.OffsetMillis
		}
	}
	return nil
}

// Totals sums a job trace's recorded service components.
func (jt *JobTrace) Totals() job.Breakdown {
	var b job.Breakdown
	for _, a := range jt.Activities {
		b.CPU += time.Duration(a.CPUMicros) * time.Microsecond
		b.Page += time.Duration(a.PageMicros) * time.Microsecond
		b.Queue += time.Duration(a.QueueMicros) * time.Microsecond
	}
	return b
}
