// Package trace generates and serializes workload traces: job submission
// streams whose arrival rate follows the lognormal rate function of the
// paper's Section 3.3.2, drawing programs from one of the two workload
// groups. The ten standard traces (SPEC-Trace-1..5 and App-Trace-1..5)
// reproduce the published (sigma=mu, job count, duration) combinations.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"vrcluster/internal/job"
	"vrcluster/internal/record"
	"vrcluster/internal/stats"
	"vrcluster/internal/workload"
)

// Item is one job submission, with the jittered program parameters pinned
// so that a trace fully determines a simulation run.
type Item struct {
	SubmitMillis int64   `json:"submitMillis"`
	Program      string  `json:"program"`
	CPUMillis    int64   `json:"cpuMillis"`
	WorkingSetMB float64 `json:"workingSetMB"`
	Home         int     `json:"home"` // workstation the job is submitted to
}

// Trace is a named, reproducible job submission stream.
type Trace struct {
	Name           string         `json:"name"`
	Group          workload.Group `json:"group"`
	Sigma          float64        `json:"sigma"`
	Mu             float64        `json:"mu"`
	DurationMillis int64          `json:"durationMillis"`
	Seed           int64          `json:"seed"`
	Nodes          int            `json:"nodes"`
	Items          []Item         `json:"items"`
}

// Config parameterizes trace generation.
type Config struct {
	Name     string
	Group    workload.Group
	Sigma    float64
	Mu       float64
	Jobs     int
	Duration time.Duration
	Nodes    int
	Seed     int64
	Jitter   workload.Jitter

	// Programs optionally restricts the job mix to a subset of the
	// group's catalog (e.g. a big-job-dominant workload for the Section
	// 2.3 ablation). Empty means the whole catalog.
	Programs []string
}

// Generate builds a trace: submission times are drawn i.i.d. from the
// lognormal(mu, sigma) distribution truncated to (0, Duration] — the
// paper's R_ln(t) used as an arrival density — then sorted; each job's
// program is drawn uniformly from the group's catalog and submitted to a
// uniformly random home workstation, matching "the jobs in each trace were
// randomly submitted to 32 workstations".
func Generate(cfg Config) (*Trace, error) {
	switch {
	case cfg.Jobs <= 0:
		return nil, errors.New("trace: job count must be positive")
	case cfg.Duration <= 0:
		return nil, errors.New("trace: duration must be positive")
	case cfg.Nodes <= 0:
		return nil, errors.New("trace: node count must be positive")
	case math.IsNaN(cfg.Sigma) || math.IsInf(cfg.Sigma, 0):
		return nil, fmt.Errorf("trace: sigma must be finite, got %v", cfg.Sigma)
	case cfg.Sigma <= 0:
		return nil, errors.New("trace: sigma must be positive")
	case math.IsNaN(cfg.Mu) || math.IsInf(cfg.Mu, 0):
		return nil, fmt.Errorf("trace: mu must be finite, got %v", cfg.Mu)
	}
	programs := workload.Programs(cfg.Group)
	if len(programs) == 0 {
		return nil, fmt.Errorf("trace: unknown workload group %d", cfg.Group)
	}
	if len(cfg.Programs) > 0 {
		wanted := make(map[string]bool, len(cfg.Programs))
		for _, name := range cfg.Programs {
			wanted[name] = true
		}
		filtered := programs[:0]
		for _, p := range programs {
			if wanted[p.Name] {
				filtered = append(filtered, p)
			}
		}
		if len(filtered) == 0 {
			return nil, fmt.Errorf("trace: program filter %v matches nothing in group %d", cfg.Programs, cfg.Group)
		}
		programs = filtered
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The lognormal rate function's time axis is read in minutes: with
	// the published mu = sigma values this spreads the light traces over
	// the whole hour-long window while concentrating the intensive
	// traces into an opening burst, matching the light-to-highly-
	// intensive labels of the five published traces.
	dist := stats.Lognormal{Mu: cfg.Mu, Sigma: cfg.Sigma}.Truncate(cfg.Duration.Minutes())

	times := make([]float64, cfg.Jobs)
	for i := range times {
		times[i] = dist.Sample(rng) * 60
	}
	sort.Float64s(times)

	items := make([]Item, cfg.Jobs)
	for i, ts := range times {
		p := programs[rng.Intn(len(programs))]
		submit := time.Duration(ts * float64(time.Second))
		j, err := p.NewJob(i, submit, rng, cfg.Jitter)
		if err != nil {
			return nil, err
		}
		items[i] = Item{
			SubmitMillis: submit.Milliseconds(),
			Program:      p.Name,
			CPUMillis:    j.CPUDemand.Milliseconds(),
			WorkingSetMB: j.PeakMemoryMB(),
			Home:         rng.Intn(cfg.Nodes),
		}
	}
	return &Trace{
		Name:           cfg.Name,
		Group:          cfg.Group,
		Sigma:          cfg.Sigma,
		Mu:             cfg.Mu,
		DurationMillis: cfg.Duration.Milliseconds(),
		Seed:           cfg.Seed,
		Nodes:          cfg.Nodes,
		Items:          items,
	}, nil
}

// Level describes one of the paper's five submission intensities.
type Level struct {
	N        int     // trace index, 1..5
	Sigma    float64 // sigma = mu in every published trace
	Jobs     int
	Duration time.Duration
}

// Levels are the five published submission rates (Section 3.3.2): light,
// moderate, normal, moderately intensive, and highly intensive.
var Levels = []Level{
	{N: 1, Sigma: 4.0, Jobs: 359, Duration: 3586 * time.Second},
	{N: 2, Sigma: 3.7, Jobs: 448, Duration: 3589 * time.Second},
	{N: 3, Sigma: 3.0, Jobs: 578, Duration: 3581 * time.Second},
	{N: 4, Sigma: 2.0, Jobs: 684, Duration: 3585 * time.Second},
	{N: 5, Sigma: 1.5, Jobs: 777, Duration: 3582 * time.Second},
}

// StandardNodes is the cluster size used by every published trace.
const StandardNodes = 32

// LevelFromName recovers the submission level from a standard trace name
// ("SPEC-Trace-3", "App-Trace-1" — the trailing integer). Custom trace
// names yield -1; telemetry uses that to omit the level label.
func LevelFromName(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return -1
	}
	lvl, err := strconv.Atoi(name[i+1:])
	if err != nil || lvl < 1 {
		return -1
	}
	return lvl
}

// Standard builds one of the ten published traces: SPEC-Trace-n for group 1
// or App-Trace-n for group 2, n in 1..5.
func Standard(g workload.Group, n int, seed int64) (*Trace, error) {
	if n < 1 || n > len(Levels) {
		return nil, fmt.Errorf("trace: level %d out of range 1..%d", n, len(Levels))
	}
	lvl := Levels[n-1]
	name := fmt.Sprintf("SPEC-Trace-%d", n)
	if g == workload.Group2 {
		name = fmt.Sprintf("App-Trace-%d", n)
	}
	return Generate(Config{
		Name:     name,
		Group:    g,
		Sigma:    lvl.Sigma,
		Mu:       lvl.Sigma, // the paper sets mu = sigma for all five traces
		Jobs:     lvl.Jobs,
		Duration: lvl.Duration,
		Nodes:    StandardNodes,
		Seed:     seed,
		Jitter:   workload.DefaultJitter,
	})
}

// Jobs materializes the trace into job objects, in submission order.
// Job IDs are item indices, so the jobs of a prefix subtrace plus the
// JobsFrom remainder of the full trace carry exactly the IDs a single
// materialization of the full trace would.
func (t *Trace) Jobs() ([]*job.Job, error) { return t.JobsFrom(0) }

// JobsFrom materializes the items from index start onward, keeping each
// job's ID equal to its item index in the full trace. Fork drivers use it
// to build the tail jobs injected after a shared warmup prefix.
func (t *Trace) JobsFrom(start int) ([]*job.Job, error) {
	if start < 0 || start > len(t.Items) {
		return nil, fmt.Errorf("trace %s: JobsFrom(%d) out of range 0..%d", t.Name, start, len(t.Items))
	}
	jobs := make([]*job.Job, 0, len(t.Items)-start)
	for i := start; i < len(t.Items); i++ {
		it := t.Items[i]
		p, ok := workload.ByName(it.Program)
		if !ok {
			return nil, fmt.Errorf("trace %s: unknown program %q", t.Name, it.Program)
		}
		scale := 1.0
		if p.WorkingSetMB > 0 {
			scale = it.WorkingSetMB / p.WorkingSetMB
		}
		phases := p.Phases(p.WorkingSetMB * scale)
		j, err := job.New(i, it.Program,
			time.Duration(it.CPUMillis)*time.Millisecond,
			phases,
			time.Duration(it.SubmitMillis)*time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", t.Name, err)
		}
		j.SetIORate(p.IORateMBps)
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// FromLog derives a replayable trace from a recorded execution log: each
// recorded job's header becomes one submission item. This closes the
// paper's trace-driven loop — record a run with the tracing facility, then
// replay the derived trace under other scheduling policies.
func FromLog(l *record.Log, g workload.Group) (*Trace, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	items := make([]Item, 0, len(l.Jobs))
	var span int64
	for _, jt := range l.Jobs {
		h := jt.Header
		if _, ok := workload.ByName(h.Program); !ok {
			return nil, fmt.Errorf("trace: recorded program %q not in catalog", h.Program)
		}
		items = append(items, Item{
			SubmitMillis: h.SubmitMillis,
			Program:      h.Program,
			CPUMillis:    h.CPUMillis,
			WorkingSetMB: h.WorkingSetMB,
			Home:         h.Home,
		})
		if h.SubmitMillis > span {
			span = h.SubmitMillis
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].SubmitMillis < items[j].SubmitMillis })
	t := &Trace{
		Name:           l.Name + "/replay",
		Group:          g,
		DurationMillis: span + 1,
		Nodes:          l.Nodes,
		Items:          items,
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Clone returns a deep copy of the trace. Replay through cluster.Run never
// mutates a trace (jobs are materialized fresh by Jobs), but paired and
// parallel experiment runs clone anyway so that no run can alias another's
// items — aliasing there would silently corrupt a paired comparison.
func (t *Trace) Clone() *Trace {
	if t == nil {
		return nil
	}
	c := *t
	c.Items = append([]Item(nil), t.Items...)
	return &c
}

// Duration reports the submission window length.
func (t *Trace) Duration() time.Duration {
	return time.Duration(t.DurationMillis) * time.Millisecond
}

// Validate checks internal consistency: sorted submissions within the
// window, known programs, and home nodes within range.
func (t *Trace) Validate() error {
	prev := int64(0)
	for i, it := range t.Items {
		if it.SubmitMillis < prev {
			return fmt.Errorf("trace %s: item %d out of order", t.Name, i)
		}
		if it.SubmitMillis > t.DurationMillis {
			return fmt.Errorf("trace %s: item %d submitted after window", t.Name, i)
		}
		if it.Home < 0 || it.Home >= t.Nodes {
			return fmt.Errorf("trace %s: item %d home %d out of range", t.Name, i, it.Home)
		}
		if _, ok := workload.ByName(it.Program); !ok {
			return fmt.Errorf("trace %s: item %d unknown program %q", t.Name, i, it.Program)
		}
		if it.CPUMillis <= 0 {
			return fmt.Errorf("trace %s: item %d nonpositive CPU demand", t.Name, i)
		}
		prev = it.SubmitMillis
	}
	return nil
}

// Encode writes the trace as JSON.
func (t *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return nil
}

// Decode reads a JSON trace and validates it.
func Decode(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
