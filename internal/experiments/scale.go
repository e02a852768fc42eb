package experiments

import (
	"fmt"
	"io"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/memory"
	"vrcluster/internal/node"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// ScaleSizes are the cluster sizes the scaling sweep visits, a roughly
// half-decade ladder from the paper's 32-node world up to the 10k-node
// target. Sizes above the configured ceiling are skipped; a ceiling that
// is not on the ladder is appended as its own point.
var ScaleSizes = []int{32, 100, 320, 1000, 3200, 10000}

// MaxScaleJobs caps any single point's trace at one million submissions.
const MaxScaleJobs = 1_000_000

// ScaleConfig parameterizes the scaling sweep.
type ScaleConfig struct {
	// MaxNodes is the largest cluster size to visit (default 10000).
	MaxNodes int

	// Jobs is the submission count at MaxNodes; smaller points scale it
	// proportionally to their node count. 0 means two jobs per node.
	// Either way the per-point count is capped at MaxScaleJobs.
	Jobs int

	Seed     int64
	Quantum  time.Duration
	Parallel int
}

func (c *ScaleConfig) validate() error {
	if c.MaxNodes == 0 {
		c.MaxNodes = 10000
	}
	if c.MaxNodes < 1 {
		return fmt.Errorf("experiments: scale node ceiling %d must be positive", c.MaxNodes)
	}
	if c.Jobs < 0 {
		return fmt.Errorf("experiments: scale job count %d must not be negative", c.Jobs)
	}
	if c.Jobs > MaxScaleJobs {
		return fmt.Errorf("experiments: scale job count %d above cap %d", c.Jobs, MaxScaleJobs)
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Quantum == 0 {
		c.Quantum = 100 * time.Millisecond
	}
	return nil
}

// sizes returns the ladder clipped to the ceiling.
func (c *ScaleConfig) sizes() []int {
	var out []int
	for _, n := range ScaleSizes {
		if n <= c.MaxNodes {
			out = append(out, n)
		}
	}
	if len(out) == 0 || out[len(out)-1] != c.MaxNodes {
		out = append(out, c.MaxNodes)
	}
	return out
}

// jobsFor scales the configured job count down to an n-node point.
func (c *ScaleConfig) jobsFor(n int) int {
	if c.Jobs > 0 {
		j := int(float64(c.Jobs) * float64(n) / float64(c.MaxNodes))
		return max(1, min(j, MaxScaleJobs))
	}
	return min(2*n, MaxScaleJobs)
}

// ScalePoint is one cluster size's measurements: the end-to-end simulated
// run's wall clock plus the board's own query accounting. The isolated
// heap-vs-dense selection timing is loadinfo's BenchmarkSelect.
type ScalePoint struct {
	Nodes      int
	Jobs       int
	Partitions int

	// Full V-Reconfiguration run over a generated trace.
	Wall     time.Duration // host wall clock for the run
	Makespan time.Duration // simulated completion time
	Selects  int64         // board selection queries answered during the run
	Scanned  int64         // entries examined answering them
}

// ScanPerSelect is the run's empirical per-decision cost: entries examined
// per selection query. O(N) selection keeps it proportional to Nodes; the
// heap path holds it near-constant.
func (p ScalePoint) ScanPerSelect() float64 {
	if p.Selects == 0 {
		return 0
	}
	return float64(p.Scanned) / float64(p.Selects)
}

// ScaleSweep is the full scaling curve.
type ScaleSweep struct {
	Points []ScalePoint
	Wall   time.Duration // wall clock of the sweep's simulated runs
	Work   time.Duration // sum of per-point Wall
}

// scaleProto is the simulated workstation every scaling point replicates:
// the paper's cluster-1 machine (400 MHz, 384 MB), so a 32-node point
// reproduces the published configuration exactly.
func scaleProto() node.Config {
	return node.Config{
		CPUSpeedMHz:  400,
		CPUThreshold: cluster.DefaultCPUThreshold,
		Memory:       memory.Config{CapacityMB: 384},
	}
}

// RunScale executes the scaling sweep: each point generates an n-node
// trace and runs it under V-Reconfiguration, the runs fanning out across
// cfg.Parallel workers. Each run owns its engine, cluster, and board, so
// results are independent of the fan-out width.
func RunScale(cfg ScaleConfig) (*ScaleSweep, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sizes := cfg.sizes()
	cells := make([]cell, len(sizes))
	for i, n := range sizes {
		tr, err := trace.Generate(trace.Config{
			Name:     fmt.Sprintf("Scale-%d", n),
			Group:    workload.Group1,
			Sigma:    3.0,
			Mu:       3.0, // the published traces set mu = sigma; 3.0 is the "normal" intensity
			Jobs:     cfg.jobsFor(n),
			Duration: 1800 * time.Second,
			Nodes:    n,
			Seed:     cfg.Seed,
			Jitter:   workload.DefaultJitter,
		})
		if err != nil {
			return nil, err
		}
		ccfg := cluster.Homogeneous(n, scaleProto())
		ccfg.Quantum = cfg.Quantum
		cells[i] = cell{name: fmt.Sprintf("scale point %d nodes", n), trace: tr, cfg: ccfg,
			sched: vr(core.Options{Lease: 30 * time.Second})}
	}
	start := time.Now()
	runs, err := runGrid(RunConfig{Parallel: cfg.Parallel}, cells)
	if err != nil {
		return nil, err
	}
	out := &ScaleSweep{Wall: time.Since(start)}
	for i, r := range runs {
		selects, scanned := r.c.Board().SelectStats()
		out.Work += r.elapsed
		out.Points = append(out.Points, ScalePoint{
			Nodes:      sizes[i],
			Jobs:       cfg.jobsFor(sizes[i]),
			Partitions: r.c.Board().Partitions(),
			Wall:       r.elapsed,
			Makespan:   r.res.Makespan,
			Selects:    selects,
			Scanned:    scanned,
		})
	}
	return out, nil
}

// Speedup reports the realized parallel speedup of the sweep.
func (s *ScaleSweep) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Work) / float64(s.Wall)
}

// RenderScale writes the scaling-curve table.
func RenderScale(w io.Writer, s *ScaleSweep) error {
	if _, err := fmt.Fprintln(w, "Scaling sweep — V-Reconfiguration run cost and per-decision selection cost"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, " %8s %9s %6s %10s %12s %10s %12s\n",
		"nodes", "jobs", "parts", "wall", "makespan s", "selects", "scan/select"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, " %8d %9d %6d %10s %12.1f %10d %12.1f\n",
			p.Nodes, p.Jobs, p.Partitions, p.Wall.Round(time.Millisecond),
			p.Makespan.Seconds(), p.Selects, p.ScanPerSelect()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, " sweep wall %s, work %s, speedup %.1fx\n\n",
		s.Wall.Round(time.Millisecond), s.Work.Round(time.Millisecond), s.Speedup())
	return err
}
