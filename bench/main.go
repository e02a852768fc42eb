// Command bench is vrcluster's benchmark: it times four simulator
// workloads end to end and attributes each to its layers.
//
// Run it from the repository root with bench/run.sh, which builds it from
// source first:
//
//	bash bench/run.sh --workload paper --seed 42 --seconds 25 --trace 0
//	bash bench/run.sh --seed 42    # every workload, untraced then traced
//
// Each workload runs in child processes, re-execs of this binary, one
// child at a time, each on one P (GOMAXPROCS=1). A child synthesizes a
// pool of inputs from the seed, runs one untimed warm pass, then runs
// passes in a closed loop with one client for its share of --seconds.
// Times are the child's CPU time, so the time the shared host gives to
// other guests does not count, scaled by the host speed a calibration loop
// measures around the passes (calibrate.go). With --trace 0 the command
// prints the end-to-end metrics of three untraced children, each running a
// third of the time. With --trace 1 it prints the per-layer metrics: a
// paired child runs each input untraced and traced back to back for half
// the time, and a profiled child runs untraced passes under the CPU
// profiler for the other half. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics; bench/out/result.json holds the full record, with
// the environment.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// timedChildren is how many timed children an end-to-end run starts, one
// after another. Each runs a third of the run's passes from its own stretch
// of the pool, so together they cover as many inputs as one child would;
// setup_s and rss_mb.max are the median over the three, where a single
// child's peak RSS followed whichever of its passes happened to peak
// highest.
const timedChildren = 3

// setupCalib is how many calibration rounds a child runs right after
// setting up; their median scales its set-up time.
const setupCalib = 25

// childProcs is every child's GOMAXPROCS. With one P the collector's
// workers share the pass's thread instead of soaking up an idle CPU, so a
// pass's CPU time is the work it waits for, and the profile's package
// buckets add up to the profiled passes' CPU time.
const childProcs = 1

// runBudget bounds one workload's run, children included.
const runBudget = 170 * time.Second

// benchDir is the benchmark's directory, relative to the repository root
// the command runs from; outDir receives what a run writes.
const benchDir = "bench"

var outDir = filepath.Join(benchDir, "out")

// keepSpans bounds the spans a traced child keeps for spans-<workload>.jsonl;
// the per-name aggregates cover every span regardless.
const keepSpans = 1 << 15

type options struct {
	seed    int64
	seconds float64
	first   int // first pool entry a timed child runs
	exe     string
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: paper, pressured, forkgrid, chaos or all")
		seed    = flag.Int64("seed", 42, "seed the workload inputs are synthesized from (42; held-out 7)")
		seconds = flag.Float64("seconds", 25, "seconds of timed passes per run")
		traced  = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 prints per-layer metrics from a traced run")
		child   = flag.String("child", "", "run as a workload child: timed, paired or profiled (set by the parent)")
		first   = flag.Int("first", 0, "first pool entry a timed child runs (set by the parent)")
	)
	flag.Parse()
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, first: *first}
	if *child != "" {
		w, err := findWorkload(*name)
		if err == nil {
			err = childMain(*child, w, opts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := parentMain(*name, *traced == 1, opts); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childReport is what a child prints on standard output. SetupS is the CPU
// time the child used from its start to the end of set-up; SetupCalib
// holds the CPU seconds of the calibration rounds it ran right after.
type childReport struct {
	Workload   string       `json:"workload"`
	Pool       int          `json:"pool"`
	SetupS     float64      `json:"setup_s"`
	SetupCalib []float64    `json:"setup_calib,omitempty"`
	Warm       passRecord   `json:"warm"`
	Passes     []passRecord `json:"passes"`           // untraced
	Traced     []passRecord `json:"traced,omitempty"` // paired child only
	Spans      *spanSummary `json:"spans,omitempty"`
}

// childMain runs one child. A timed child runs untraced passes; a paired
// child runs untraced and traced passes back to back; a profiled child
// runs untraced passes under the CPU profiler. The timed and paired
// children calibrate after set-up, and the timed child around every pass;
// the profiled child never does, so every sample it takes falls in a pass.
func childMain(kind string, w *benchWorkload, o options) error {
	var rec *recorder
	if kind == "paired" {
		rec = newRecorder(keepSpans)
	} else if kind != "timed" && kind != "profiled" {
		return fmt.Errorf("unknown child kind %q", kind)
	}
	s, err := newSession(w, o.seed, w.pool, rec)
	if err != nil {
		return err
	}
	rep := childReport{Workload: w.name, Pool: len(s.inputs), SetupS: cpuSeconds(), Warm: s.warm}
	if kind != "profiled" {
		if s.cal, err = newCalibrator(); err != nil {
			return err
		}
		for i := 0; i < setupCalib; i++ {
			rep.SetupCalib = append(rep.SetupCalib, s.calibrate())
		}
	}
	switch kind {
	case "timed":
		rep.Passes = s.measure(o.first, o.seconds, 0)
	case "paired":
		rep.Passes, rep.Traced = s.measurePaired(o.seconds, 0)
		rep.Spans = rec.summary()
		if err := rec.writeJSONL(filepath.Join(outDir, "spans-"+w.name+".jsonl")); err != nil {
			return err
		}
	case "profiled":
		if rep.Passes, err = profiledPasses(s, o, w.name); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// profiledPasses runs untraced passes under the CPU profiler.
func profiledPasses(s *session, o options, name string) ([]passRecord, error) {
	f, err := os.Create(profilePath(name))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	passes := s.measure(0, o.seconds, 0)
	pprof.StopCPUProfile()
	return passes, f.Close()
}

func profilePath(name string) string {
	return filepath.Join(outDir, "cpu-"+name+".pprof")
}

func parentMain(name string, traced bool, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	o.exe = exe
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	golden, err := loadGolden(filepath.Join(benchDir, "testdata", "golden.json"))
	if err != nil {
		return err
	}
	selected := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []*benchWorkload{w}
	}
	env := captureEnv(o)
	printHeader(env)
	// A single workload runs in the mode --trace asks for; all workloads
	// run both modes, end-to-end first.
	var kinds []func(context.Context, *benchWorkload, options, goldenFile) (*runResult, error)
	if name == "all" || !traced {
		kinds = append(kinds, endToEndRun)
	}
	if name == "all" || traced {
		kinds = append(kinds, layerRun)
	}
	var runs []*runResult
	for _, w := range selected {
		for _, measure := range kinds {
			ctx, cancel := context.WithTimeout(context.Background(), runBudget)
			r, err := measure(ctx, w, o, golden)
			cancel()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printRun(r)
			env.Passes[fmt.Sprintf("%s/trace%d", r.Workload, r.Trace)] = r.Passes
			runs = append(runs, r)
		}
	}
	if err := writeJSONFile(filepath.Join(outDir, "result.json"), resultFile{Env: env, Runs: runs}); err != nil {
		return err
	}
	return printSummary(runs, len(selected) > 1)
}

// printSummary prints the final JSON line. A combined run prefixes every
// metric with its workload.
func printSummary(runs []*runResult, combined bool) error {
	sum := summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range runs {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for _, m := range r.Metrics {
			key := m.Name
			if combined {
				key = r.Workload + "." + m.Name
			}
			sum.Metrics[key] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !sum.Correct {
		return errors.New("some passes failed their checks")
	}
	return nil
}
