// Command vrbench regenerates the paper's evaluation: every table and
// figure of Section 4, the Section 5 analytical verification, and the
// design-choice ablations.
//
// Examples:
//
//	vrbench                      # everything
//	vrbench -exp fig1            # Figure 1 only
//	vrbench -exp ablations -level 3
//	vrbench -exp faults -level 2 # failure-rate sweep with self-healing
//	vrbench -exp scale -nodes 10000 -parallel 8
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/experiments"
	"vrcluster/internal/faults"
	"vrcluster/internal/obs"
	"vrcluster/internal/profiling"
	"vrcluster/internal/runner"
	"vrcluster/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vrbench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("vrbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: all, table1, table2, fig1, fig2, fig3, fig4, analytic, intervals, ablations, ablate, seeds, faults, chaos, scale")
		seed     = fs.Int64("seed", experiments.DefaultSeed, "trace generation seed")
		quantum  = fs.Duration("quantum", 100*time.Millisecond, "CPU scheduling quantum")
		level    = fs.Int("level", 3, "trace level for -exp all, ablations, seeds, ablate and faults")
		parallel = fs.Int("parallel", runner.DefaultParallelism(), "worker goroutines for independent runs (1 = sequential)")
		nodes    = fs.Int("nodes", 10000, "largest cluster size for the scaling sweep (-exp scale)")
		jobs     = fs.Int("jobs", 0, "submissions at the largest scale point, scaled down proportionally (0 = two per node, cap 1e6)")
		levels   = fs.String("levels", "", "comma-separated trace levels for -exp chaos (default all five)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		metrics  = fs.String("metrics", "", "serve live telemetry on this address while experiments run (e.g. 127.0.0.1:9091)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateExpFlags(fs, *exp); err != nil {
		return err
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		srv, serr := cluster.ServeMetrics(*metrics, reg)
		if serr != nil {
			return serr
		}
		fmt.Fprintf(os.Stderr, "vrbench: serving metrics on http://%s/metrics\n", srv.Addr())
		defer srv.Close()
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	chaosLevels, err := parseLevels(*levels)
	if err != nil {
		return err
	}
	out := os.Stdout
	cfg := func(g workload.Group) experiments.RunConfig {
		// The grids that share a warmup prefix always fork from it; the
		// fresh strategy is the reference the tests compare against.
		return experiments.RunConfig{Group: g, Seed: *seed, Quantum: *quantum, Parallel: *parallel, Fork: true, Metrics: reg}
	}

	needGroup1 := *exp == "all" || *exp == "fig1" || *exp == "fig2" || *exp == "analytic" || *exp == "intervals"
	needGroup2 := *exp == "all" || *exp == "fig3" || *exp == "fig4"

	var g1, g2 *experiments.GroupRuns
	if needGroup1 {
		fmt.Fprintln(out, "running workload group 1 (SPEC-Trace-1..5, cluster 1, 32 nodes)...")
		if g1, err = experiments.Run(cfg(workload.Group1)); err != nil {
			return err
		}
		reportTiming(out, g1, *parallel)
	}
	if needGroup2 {
		fmt.Fprintln(out, "running workload group 2 (App-Trace-1..5, cluster 2, 32 nodes)...")
		if g2, err = experiments.Run(cfg(workload.Group2)); err != nil {
			return err
		}
		reportTiming(out, g2, *parallel)
	}
	fmt.Fprintln(out)

	switch *exp {
	case "all":
		if err := experiments.RenderCatalog(out, workload.Group1); err != nil {
			return err
		}
		if err := experiments.RenderCatalog(out, workload.Group2); err != nil {
			return err
		}
		if err := experiments.RenderGroup(out, g1, *quantum); err != nil {
			return err
		}
		if err := experiments.RenderGroup(out, g2, *quantum); err != nil {
			return err
		}
		return ablations(out, cfg(workload.Group1), *level)
	case "table1":
		return experiments.RenderCatalog(out, workload.Group1)
	case "table2":
		return experiments.RenderCatalog(out, workload.Group2)
	case "fig1", "fig2", "fig3", "fig4":
		var tables []experiments.Table
		switch *exp {
		case "fig1":
			tables = g1.ExecQueueTables()
		case "fig2":
			tables = g1.SlowdownTables()
		case "fig3":
			tables = g2.ExecQueueTables()
		default:
			tables = g2.SlowdownTables()
		}
		for _, t := range tables {
			if err := experiments.RenderTable(out, t); err != nil {
				return err
			}
		}
		return nil
	case "analytic":
		return experiments.RenderAnalyticRows(out, g1.AnalyticCheck(*quantum))
	case "intervals":
		rows, err := g1.IntervalInsensitivity()
		if err != nil {
			return err
		}
		return experiments.RenderIntervalRows(out, rows)
	case "ablations":
		return ablations(out, cfg(workload.Group1), *level)
	case "seeds":
		start := time.Now()
		rows, err := experiments.SeedSensitivity(cfg(workload.Group1), *level, []int64{7, 21, 42, 99, 1234})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "seed grid on level %d in %v\n\n", *level, time.Since(start).Round(time.Millisecond))
		return experiments.RenderSeedRows(out, rows)
	case "ablate":
		c := cfg(workload.Group1)
		fmt.Fprintf(out, "running what-if grid on trace level %d...\n\n", *level)
		results, err := experiments.WhatIfGrid(c, *level, experiments.StandardWhatIfs(c))
		if err != nil {
			return err
		}
		return experiments.RenderAblation(out, "What-if grid — mid-run policy swaps from a shared warmup prefix", results)
	case "scale":
		fmt.Fprintf(out, "running scaling sweep up to %d nodes...\n\n", *nodes)
		sweep, err := experiments.RunScale(experiments.ScaleConfig{
			MaxNodes: *nodes,
			Jobs:     *jobs,
			Seed:     *seed,
			Quantum:  *quantum,
			Parallel: *parallel,
		})
		if err != nil {
			return err
		}
		return experiments.RenderScale(out, sweep)
	case "faults":
		fmt.Fprintf(out, "running fault sweep on trace level %d...\n\n", *level)
		plan := faults.Plan{Crash: faults.Requeue, DropRate: 0.1, AbortRate: 0.2}
		rows, err := experiments.FaultSweep(cfg(workload.Group1), *level, plan, nil)
		if err != nil {
			return err
		}
		return experiments.RenderFaultRows(out, rows)
	case "chaos":
		c := cfg(workload.Group1)
		if len(chaosLevels) > 0 {
			c.Levels = chaosLevels
		}
		fmt.Fprintf(out, "running chaos grid (levels %v, auditor on)...\n\n", c.Levels)
		rows, err := experiments.ChaosSweep(c, nil)
		if err != nil {
			return err
		}
		return experiments.RenderChaos(out, rows)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}

// expFlags lists the flags only some experiments read, with the -exp
// values that read them.
var expFlags = map[string][]string{
	"nodes":  {"scale"},
	"jobs":   {"scale"},
	"levels": {"chaos"},
	"level":  {"all", "ablations", "seeds", "ablate", "faults"},
}

// validateExpFlags rejects a flag set explicitly that the chosen
// experiment would silently ignore.
func validateExpFlags(fs *flag.FlagSet, exp string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if needs, ok := expFlags[f.Name]; ok && err == nil && !slices.Contains(needs, exp) {
			err = fmt.Errorf("-%s needs -exp %s", f.Name, strings.Join(needs, "|"))
		}
	})
	return err
}

// parseLevels parses a comma-separated level list ("1,3,5"); empty means
// the experiment's default.
func parseLevels(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -levels entry %q: %w", f, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// reportTiming prints the sweep's wall-clock cost, the summed per-level
// simulation work, and the realized speedup (work/wall) of the fan-out.
func reportTiming(out *os.File, gr *experiments.GroupRuns, parallel int) {
	if parallel <= 0 {
		parallel = runner.DefaultParallelism()
	}
	fmt.Fprintf(out, "  %d levels in %v wall (%v of simulation work, %.2fx speedup, parallel=%d)\n",
		len(gr.Levels), gr.Wall.Round(time.Millisecond), gr.Work.Round(time.Millisecond), gr.Speedup(), parallel)
}

func ablations(out *os.File, cfg experiments.RunConfig, level int) error {
	fmt.Fprintf(out, "running ablations on trace level %d...\n\n", level)
	for _, a := range []struct {
		title string
		run   func() ([]experiments.AblationResult, error)
	}{
		{"Ablation — policy variants (Sections 1, 2.1)", func() ([]experiments.AblationResult, error) {
			return experiments.AblationRules(cfg, level)
		}},
		{"Ablation — reservation cap (Section 2.2)", func() ([]experiments.AblationResult, error) {
			return experiments.AblationReservationCap(cfg, level, []int{1, 2, 4, 8, 16})
		}},
		{"Ablation — load exchange period (Section 6)", func() ([]experiments.AblationResult, error) {
			return experiments.AblationExchangePeriod(cfg, level,
				[]time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second})
		}},
		{"Ablation — big-job-dominant workload (Section 2.3)", func() ([]experiments.AblationResult, error) {
			return experiments.AblationBigJobs(cfg, level)
		}},
		{"Ablation — heterogeneous cluster (Section 2.3)", func() ([]experiments.AblationResult, error) {
			return experiments.AblationHeterogeneous(cfg, level)
		}},
		{"Ablation — network RAM for oversized jobs (Section 2.3)", func() ([]experiments.AblationResult, error) {
			return experiments.AblationNetworkRAM(cfg, level)
		}},
		{"Ablation — dedicated vs shared Ethernet", func() ([]experiments.AblationResult, error) {
			return experiments.AblationSharedNetwork(cfg, level)
		}},
	} {
		results, err := a.run()
		if err != nil {
			return err
		}
		if err := experiments.RenderAblation(out, a.title, results); err != nil {
			return err
		}
	}
	return nil
}
