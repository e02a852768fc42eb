package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/loadinfo"
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

// selectQueries is the micro-benchmark's query count per board and mode:
// enough repetitions to time a selection in the tens-of-nanoseconds range,
// small enough that the dense O(n) reference stays affordable at 10k nodes.
const selectQueries = 4096

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
// run (wall clock plus the board's own query accounting) and the isolated
// selection micro-benchmark on a synthetic board of the same size, timed
// through both the partition-heap path and the dense O(n) reference.
type ScalePoint struct {
	Nodes      int
	Jobs       int
	Partitions int

	// Full V-Reconfiguration run over a generated trace.
	Wall     time.Duration // host wall clock for the run
	Makespan time.Duration // simulated completion time
	Selects  int64         // board selection queries answered during the run
	Scanned  int64         // entries examined answering them

	// Selection micro-benchmark (ns per query, same board, same queries).
	HeapNs  float64
	DenseNs float64
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

// Speedup is the micro-benchmark's dense/heap time ratio.
func (p ScalePoint) Speedup() float64 {
	if p.HeapNs == 0 {
		return 0
	}
	return p.DenseNs / p.HeapNs
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
// cfg.Parallel workers; then candidate selection is timed in isolation on
// a synthetic board of each size, one point at a time so no run competes
// with the timings. Each run owns its engine, cluster, and board, so
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
		ccfg.Seed = 1
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
		p := ScalePoint{
			Nodes:      sizes[i],
			Jobs:       cfg.jobsFor(sizes[i]),
			Partitions: r.c.Board().Partitions(),
			Wall:       r.elapsed,
			Makespan:   r.res.Makespan,
			Selects:    selects,
			Scanned:    scanned,
		}
		if p.HeapNs, p.DenseNs, err = timeSelection(p.Nodes, cfg.Seed); err != nil {
			return nil, err
		}
		out.Work += r.elapsed
		out.Points = append(out.Points, p)
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

// timeSelection measures BestDestination in isolation on a synthetic
// n-node board, first through the partition heaps and then through the
// dense O(n) reference, using the identical query sequence. The board is
// built via Publish with a seeded mix of load states (idle spreads, full
// slots, pressure, a few reserved and down nodes), so the timings reflect
// a realistically mixed board rather than a best-case one.
func timeSelection(n int, seed int64) (heapNs, denseNs float64, err error) {
	b, err := loadinfo.NewBoard(n, loadinfo.DefaultPeriod)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		e := loadinfo.Entry{
			NodeID:  i,
			Jobs:    rng.Intn(5),
			Slots:   cluster.DefaultCPUThreshold,
			IdleMB:  float64(rng.Intn(384)),
			UserMB:  float64(rng.Intn(200)),
			HasSlot: true,
		}
		e.HasSlot = e.Jobs < e.Slots
		switch rng.Intn(16) {
		case 0:
			e.Pressured = true
		case 1:
			e.Reserved = true
		case 2:
			e.Down = true
		}
		if err := b.Publish(i, e); err != nil {
			return 0, 0, err
		}
	}
	demands := make([]float64, selectQueries)
	for i := range demands {
		demands[i] = float64(rng.Intn(400))
	}
	exclude := map[int]bool{rng.Intn(n): true}

	// Best of several timed passes (after one warm-up pass) filters out
	// scheduler and cache-warm-up noise, which dominates at small n where
	// a full pass is only a few hundred microseconds.
	run := func(dense bool) float64 {
		b.SetDenseSelect(dense)
		best := 0.0
		for pass := 0; pass < 4; pass++ {
			t0 := time.Now()
			for _, d := range demands {
				b.BestDestination(d, exclude)
			}
			ns := float64(time.Since(t0).Nanoseconds()) / float64(len(demands))
			if pass == 0 {
				continue // warm-up
			}
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	return run(false), run(true), nil
}

// RenderScale writes the scaling-curve table.
func RenderScale(w io.Writer, s *ScaleSweep) error {
	if _, err := fmt.Fprintln(w, "Scaling sweep — V-Reconfiguration run cost and per-decision selection cost"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, " %8s %9s %6s %10s %12s %10s %12s %11s %11s %8s\n",
		"nodes", "jobs", "parts", "wall", "makespan s", "selects", "scan/select", "heap ns/op", "dense ns/op", "speedup"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, " %8d %9d %6d %10s %12.1f %10d %12.1f %11.1f %11.1f %7.1fx\n",
			p.Nodes, p.Jobs, p.Partitions, p.Wall.Round(time.Millisecond),
			p.Makespan.Seconds(), p.Selects, p.ScanPerSelect(),
			p.HeapNs, p.DenseNs, p.Speedup()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, " sweep wall %s, work %s, speedup %.1fx\n\n",
		s.Wall.Round(time.Millisecond), s.Work.Round(time.Millisecond), s.Speedup())
	return err
}

// ScaleBenchLines renders the sweep as go-test benchmark result lines, the
// format cmd/benchjson ingests: one ScaleSelect line per size and mode
// (the isolated selection cost the log-log fit runs on) and one ScaleRun
// line per size (the end-to-end wall clock with the run's empirical
// scan-per-select as an extra metric).
func ScaleBenchLines(s *ScaleSweep) ([]string, error) {
	if len(s.Points) == 0 {
		return nil, errors.New("experiments: empty scale sweep")
	}
	var out []string
	for _, p := range s.Points {
		out = append(out,
			fmt.Sprintf("BenchmarkScaleSelect/algo=heap/nodes=%d\t%d\t%.1f ns/op", p.Nodes, selectQueries, p.HeapNs),
			fmt.Sprintf("BenchmarkScaleSelect/algo=dense/nodes=%d\t%d\t%.1f ns/op", p.Nodes, selectQueries, p.DenseNs),
			fmt.Sprintf("BenchmarkScaleRun/nodes=%d\t1\t%d ns/op\t%.2f scan/select\t%d selects",
				p.Nodes, p.Wall.Nanoseconds(), p.ScanPerSelect(), p.Selects),
		)
	}
	return out, nil
}
