package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/job"
	"vrcluster/internal/node"
)

// spanName is a layer boundary the traced child times. Spans are recorded
// from the benchmark's own files, around the calls into each layer.
type spanName uint8

const (
	spanPass spanName = iota
	spanTraceGenerate
	spanClusterNew
	spanClusterRun
	spanPolicyPlace
	spanPolicyControl
	spanCoreOnBlocked
	spanPolicyJobDone
	spanCoreOnDone
	spanSeedGrid
	spanWhatIfGrid
	numSpans
)

var spanNames = [numSpans]string{
	spanPass:          "pass",
	spanTraceGenerate: "trace.generate",
	spanClusterNew:    "cluster.new",
	spanClusterRun:    "cluster.run",
	spanPolicyPlace:   "policy.place",
	spanPolicyControl: "policy.control",
	spanCoreOnBlocked: "core.on_blocked",
	spanPolicyJobDone: "policy.job_done",
	spanCoreOnDone:    "core.on_done",
	spanSeedGrid:      "experiments.seed_grid",
	spanWhatIfGrid:    "experiments.whatif_grid",
}

// setupPass is the pass id of spans recorded during set-up.
const setupPass = -1

// span is one recorded interval, in nanoseconds since the recorder was
// built. Parent indexes the enclosing span in the same buffer; it is -1 at
// a root or when the enclosing span was not kept.
type span struct {
	Name   spanName
	Pass   int32
	Parent int32
	Start  int64
	End    int64
}

type openSpan struct {
	name  spanName
	idx   int32
	start int64
	child int64 // time covered by closed child spans
}

// recorder keeps spans in a preallocated buffer and folds every span into
// per-name call counts and self time as it closes, so the aggregates cover
// all passes even after the buffer is full and later spans are no longer
// kept. All methods are no-ops on a nil recorder, which is how untraced
// passes run.
type recorder struct {
	origin time.Time
	pass   int32
	spans  []span
	open   []openSpan

	calls        [numSpans]int64
	selfNs       [numSpans]int64
	placeRefused int64
}

// spanSummary is a traced child's per-name span aggregates.
type spanSummary struct {
	Calls        map[string]int64 `json:"calls"`
	SelfNs       map[string]int64 `json:"self_ns"`
	PlaceRefused int64            `json:"place_refused"`
}

func (r *recorder) summary() *spanSummary {
	s := &spanSummary{
		Calls:        make(map[string]int64),
		SelfNs:       make(map[string]int64),
		PlaceRefused: r.placeRefused,
	}
	for n := spanName(0); n < numSpans; n++ {
		s.Calls[spanNames[n]] = r.calls[n]
		s.SelfNs[spanNames[n]] = r.selfNs[n]
	}
	return s
}

func newRecorder(keep int) *recorder {
	return &recorder{
		origin: time.Now(),
		pass:   setupPass,
		spans:  make([]span, 0, keep),
		open:   make([]openSpan, 0, 16),
	}
}

func (r *recorder) begin(n spanName) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.origin))
	parent := int32(-1)
	if k := len(r.open); k > 0 {
		parent = r.open[k-1].idx
	}
	idx := int32(-1)
	if len(r.spans) < cap(r.spans) {
		idx = int32(len(r.spans))
		r.spans = append(r.spans, span{Name: n, Pass: r.pass, Parent: parent, Start: now})
	}
	r.open = append(r.open, openSpan{name: n, idx: idx, start: now})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	now := int64(time.Since(r.origin))
	k := len(r.open) - 1
	o := r.open[k]
	r.open = r.open[:k]
	d := now - o.start
	r.calls[o.name]++
	r.selfNs[o.name] += d - o.child
	if k > 0 {
		r.open[k-1].child += d
	}
	if o.idx >= 0 {
		r.spans[o.idx].End = now
	}
}

// writeJSONL writes the kept spans, one object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range r.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"pass":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, spanNames[s.Name], s.Pass, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrap decorates a scheduler so the cluster's calls into the policy layer
// are timed. For V-Reconfiguration it also times the hooks the core
// manager hangs on G-Loadsharing.
func (r *recorder) wrap(s cluster.Scheduler) cluster.Scheduler {
	if v, ok := s.(*core.VReconfiguration); ok {
		gls := v.LoadSharing()
		if blocked := gls.OnBlocked; blocked != nil {
			gls.OnBlocked = func(c *cluster.Cluster, now time.Duration, src *node.Node, victim *job.Job) {
				r.begin(spanCoreOnBlocked)
				blocked(c, now, src, victim)
				r.end()
			}
		}
		if done := gls.OnDone; done != nil {
			gls.OnDone = func(c *cluster.Cluster, n *node.Node, j *job.Job) {
				r.begin(spanCoreOnDone)
				done(c, n, j)
				r.end()
			}
		}
	}
	t := &tracedScheduler{inner: s, rec: r}
	if st, ok := s.(schedulerState); ok {
		return &statefulScheduler{tracedScheduler: t, state: st}
	}
	return t
}

// tracedScheduler times Place, OnControl and OnJobDone.
type tracedScheduler struct {
	inner cluster.Scheduler
	rec   *recorder
}

func (t *tracedScheduler) Name() string { return t.inner.Name() }

func (t *tracedScheduler) Place(c *cluster.Cluster, j *job.Job, home int) (int, bool, bool) {
	t.rec.begin(spanPolicyPlace)
	target, remote, ok := t.inner.Place(c, j, home)
	if !ok {
		t.rec.placeRefused++
	}
	t.rec.end()
	return target, remote, ok
}

func (t *tracedScheduler) OnControl(c *cluster.Cluster, now time.Duration) {
	t.rec.begin(spanPolicyControl)
	t.inner.OnControl(c, now)
	t.rec.end()
}

func (t *tracedScheduler) OnJobDone(c *cluster.Cluster, n *node.Node, j *job.Job) {
	t.rec.begin(spanPolicyJobDone)
	t.inner.OnJobDone(c, n, j)
	t.rec.end()
}

// schedulerState is the optional interface cluster.Snapshot and Restore
// look for on a scheduler.
type schedulerState interface {
	SnapshotState() any
	RestoreState(any)
}

// statefulScheduler forwards fork state to an inner scheduler that has it,
// so a traced scheduler still rewinds under cluster Snapshot and Restore.
type statefulScheduler struct {
	*tracedScheduler
	state schedulerState
}

func (s *statefulScheduler) SnapshotState() any     { return s.state.SnapshotState() }
func (s *statefulScheduler) RestoreState(state any) { s.state.RestoreState(state) }
