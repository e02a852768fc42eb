package experiments

import (
	"errors"
	"fmt"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/metrics"
	"vrcluster/internal/obs"
	"vrcluster/internal/policy"
	"vrcluster/internal/runner"
	"vrcluster/internal/trace"
)

// cell is one simulation of an experiment grid: trace replayed on a
// cluster built from cfg under a freshly built scheduler. Every public
// grid of this package is a list of cells handed to runGrid.
type cell struct {
	name  string // labels the cell in errors; ablations report it as the variant
	trace *trace.Trace
	cfg   cluster.Config
	sched func() (cluster.Scheduler, error)

	// diverge, when set, mutates the running cluster at prefix.at (a
	// what-if swap); it requires a prefix.
	diverge func(*cluster.Cluster) error

	// prefix, when set, is a warmup this cell shares with every other cell
	// pointing at the same prefix. Under RunConfig.Fork the group simulates
	// it once per chunk and forks each cell from the snapshot; otherwise
	// the cell runs from scratch.
	prefix *prefix
}

// prefix is a warmup shared by a group of cells: head is simulated up to
// at, where the cells diverge. Cells sharing a prefix must share cfg and
// scheduler, and each cell's trace must extend head — its items beyond
// head are the arrivals injected after the fork.
type prefix struct {
	head *trace.Trace
	at   time.Duration
}

// cellRun is one finished cell. Only a fresh cell keeps its cluster and
// scheduler; a forked cell's were its chunk's, rewound for the next cell,
// so c and sched are nil and the chunk's cluster is freed with its task.
type cellRun struct {
	res     *metrics.Result
	c       *cluster.Cluster
	sched   cluster.Scheduler
	elapsed time.Duration
}

// runGrid runs every cell and returns the runs in input order. Cells fan
// out across rc.Parallel workers: one task per fresh cell and, under
// rc.Fork, one task per chunk of each prefix group, so each group
// simulates its warmup once per chunk. Every task builds its own cluster,
// scheduler and trace copy, which makes the results identical at any
// width and under either strategy. Every run is checked for wedges: a
// grid that returns without error completed or killed every job.
func runGrid(rc RunConfig, cells []cell) ([]cellRun, error) {
	if len(cells) == 0 {
		return nil, errors.New("experiments: empty grid")
	}
	groups := map[*prefix][]int{}
	for i, cl := range cells {
		if rc.Fork && cl.prefix != nil {
			groups[cl.prefix] = append(groups[cl.prefix], i)
		}
	}
	var tasks [][]int
	for i, cl := range cells {
		idx, forked := groups[cl.prefix]
		switch {
		case !forked:
			tasks = append(tasks, []int{i})
		case idx[0] == i:
			for _, r := range chunkRanges(len(idx), rc.Parallel) {
				tasks = append(tasks, idx[r[0]:r[1]])
			}
		}
	}
	parts, err := runner.Map(rc.Parallel, tasks, func(_ int, task []int) ([]cellRun, error) {
		return runTask(rc, cells, task)
	})
	if err != nil {
		return nil, err
	}
	out := make([]cellRun, len(cells))
	for t, task := range tasks {
		for k, i := range task {
			out[i] = parts[t][k]
		}
	}
	return out, nil
}

// runTask runs one fresh cell, or one chunk of a prefix group: the
// chunk's warmup is simulated once and snapshotted, then each cell
// rewinds to the snapshot, injects its own arrivals beyond the head,
// applies its divergence and runs to completion. A chunk's build and
// warmup are charged to its first cell's elapsed time.
func runTask(rc RunConfig, cells []cell, task []int) ([]cellRun, error) {
	start := time.Now()
	first := cells[task[0]]
	c, sched, err := build(rc, first)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", first.name, err)
	}
	p := first.prefix
	var snap *cluster.Snapshot
	if rc.Fork && p != nil {
		// A warmup shorter than the cells' traces has tail jobs still to
		// come: its clocks must run on to the divergence instant even if
		// every warmup job completes first, as they would in a fresh run.
		if snap, err = warmup(c, p, len(p.head.Items) < len(first.trace.Items)); err != nil {
			return nil, fmt.Errorf("experiments: %s: warmup: %w", first.name, err)
		}
	}
	out := make([]cellRun, len(task))
	for k, i := range task {
		cl := cells[i]
		var res *metrics.Result
		switch {
		case snap != nil:
			res, err = fork(rc, c, snap, sched, cl, len(p.head.Items))
		case cl.diverge != nil:
			res, err = c.RunDiverged(cl.trace.Clone(), cl.trace.Name, p.at, cl.diverge)
		default:
			res, err = c.Run(cl.trace.Clone())
		}
		if err == nil && res.Completed+res.Killed != res.Jobs {
			err = fmt.Errorf("wedged: %d completed + %d killed of %d jobs", res.Completed, res.Killed, res.Jobs)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", cl.name, err)
		}
		out[k] = cellRun{res: res, elapsed: time.Since(start)}
		if snap == nil {
			out[k].c, out[k].sched = c, sched
		}
		start = time.Now()
	}
	return out, nil
}

// build constructs a cell's scheduler and cluster, attaching rc.Metrics.
func build(rc RunConfig, cl cell) (*cluster.Cluster, cluster.Scheduler, error) {
	sched, err := cl.sched()
	if err != nil {
		return nil, nil, err
	}
	cfg := cl.cfg
	if rc.Metrics != nil {
		if cfg.Obs == nil {
			cfg.Obs = obs.NewStreamTracer()
		}
		cfg.Obs.SetMetrics(series(rc, sched, cl))
	}
	c, err := cluster.New(cfg, sched)
	if err != nil {
		return nil, nil, err
	}
	return c, sched, nil
}

// series is the live telemetry series of one cell.
func series(rc RunConfig, sched cluster.Scheduler, cl cell) *obs.Series {
	return rc.Metrics.Series(sched.Name(), cl.trace.Name, trace.LevelFromName(cl.trace.Name))
}

// warmup simulates a prefix's head up to its divergence instant and
// snapshots the cluster there.
func warmup(c *cluster.Cluster, p *prefix, holdOpen bool) (*cluster.Snapshot, error) {
	if err := c.Start(p.head.Clone()); err != nil {
		return nil, err
	}
	c.HoldOpen(holdOpen)
	if err := c.RunToDivergence(p.at); err != nil {
		return nil, err
	}
	return c.Snapshot()
}

// fork rewinds a warmed-up cluster to snap and finishes one cell from it,
// injecting the cell's trace items from cut on. The shared warmup feeds
// the chunk's first series; each fork's continuation feeds its own cell's.
func fork(rc RunConfig, c *cluster.Cluster, snap *cluster.Snapshot, sched cluster.Scheduler, cl cell, cut int) (*metrics.Result, error) {
	if err := c.Restore(snap); err != nil {
		return nil, err
	}
	if rc.Metrics != nil {
		c.Tracer().SetMetrics(series(rc, sched, cl))
	}
	if tail := cl.trace.Items[cut:]; len(tail) > 0 {
		jobs, err := cl.trace.JobsFrom(cut)
		if err != nil {
			return nil, err
		}
		homes := make([]int, len(tail))
		for i, it := range tail {
			homes[i] = it.Home
		}
		if err := c.InjectArrivals(jobs, homes); err != nil {
			return nil, err
		}
	}
	if cl.diverge != nil {
		if err := cl.diverge(c); err != nil {
			return nil, err
		}
	}
	return c.Finish(cl.trace.Name)
}

// chunkRanges splits n items into at most width contiguous chunks of
// near-equal size.
func chunkRanges(n, width int) [][2]int {
	if width <= 0 {
		width = runner.DefaultParallelism()
	}
	if width > n {
		width = n
	}
	out := make([][2]int, 0, width)
	for i := 0; i < width; i++ {
		lo, hi := i*n/width, (i+1)*n/width
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// gls builds the G-Loadsharing baseline for a cell.
func gls() (cluster.Scheduler, error) { return policy.NewGLoadSharing(), nil }

// vr builds V-Reconfiguration with opts for a cell.
func vr(opts core.Options) func() (cluster.Scheduler, error) {
	return func() (cluster.Scheduler, error) { return core.NewVReconfiguration(opts) }
}

// manager is the reconfiguration manager of a V-Reconfiguration run.
func (r cellRun) manager() *core.Manager {
	return r.sched.(*core.VReconfiguration).Manager()
}

// ablate runs one cell per variant and reports each under its cell name.
func ablate(rc RunConfig, cells []cell) ([]AblationResult, error) {
	runs, err := runGrid(rc, cells)
	if err != nil {
		return nil, err
	}
	out := make([]AblationResult, len(runs))
	for i, r := range runs {
		out[i] = AblationResult{Variant: cells[i].name, Result: r.res}
	}
	return out, nil
}
