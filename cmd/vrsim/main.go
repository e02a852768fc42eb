// Command vrsim runs cluster simulations: a workload trace (standard or
// from a file via -in) executed under a chosen scheduling policy, printing
// the summary metrics the paper reports. With -levels, several submission
// intensities fan out across -parallel worker goroutines, each in its own
// independent simulation; results print in level order and are identical
// to running the levels one at a time.
//
// The observability layer rides along on demand: -trace writes every
// scheduler decision as JSONL (summarize with vrobs), -perfetto writes a
// Chrome/Perfetto timeline (open in ui.perfetto.dev), and -events prints
// a human-readable tail of the last N decisions.
//
// Examples:
//
//	vrsim -group 1 -level 3 -policy vr
//	vrsim -group 2 -level 5 -policy gls -quantum 10ms
//	vrsim -in mytrace.json -policy vr-early -json
//	vrsim -group 1 -levels 1,2,3,4,5 -policy vr -json
//	vrsim -group 1 -level 2 -faults -mtbf 20m -crash requeue -lease 30s
//	vrsim -group 1 -level 2 -faults -mtbf 20m -domains 4 -partmtbf 15m -audit -autoscale 40
//	vrsim -group 1 -level 3 -policy vr -trace out.jsonl -perfetto out.json
//	vrsim -group 1 -level 3 -policy vr -events 40
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/faults"
	"vrcluster/internal/metrics"
	"vrcluster/internal/obs"
	"vrcluster/internal/policy"
	"vrcluster/internal/profiling"
	"vrcluster/internal/runner"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vrsim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("vrsim", flag.ContinueOnError)
	var (
		group      = fs.Int("group", 1, "workload group (1 = SPEC, 2 = applications)")
		level      = fs.Int("level", 1, "submission intensity 1..5")
		policyArg  = fs.String("policy", "vr", "policy: gls, vr, vr-early, vr-netram, none, cpu, suspend")
		seed       = fs.Int64("seed", 42, "trace generation seed")
		quantum    = fs.Duration("quantum", 100*time.Millisecond, "CPU scheduling quantum")
		inFile     = fs.String("in", "", "load the workload trace from a JSON file instead of generating")
		workFile   = fs.String("workload", "", "deprecated alias for -in")
		obsFile    = fs.String("trace", "", "write the structured scheduler event trace to this JSONL file (with -levels: one file per level)")
		perfFile   = fs.String("perfetto", "", "write a Chrome/Perfetto trace-event timeline to this JSON file (with -levels: one file per level)")
		eventsN    = fs.Int("events", 0, "print a human-readable tail of the last N scheduler events after a single run")
		jsonOut    = fs.Bool("json", false, "emit the result as JSON")
		maxTime    = fs.Duration("maxtime", 0, "virtual time safety cap (0 = default)")
		maxRes     = fs.Int("maxres", 0, "reservation cap override (0 = default)")
		faultScale = fs.Float64("faultscale", 0, "fault model scale override (0 = default)")
		largeFrac  = fs.Float64("largefrac", 0, "large-job fraction override (0 = default)")
		ageFactor  = fs.Float64("agefactor", 0, "min victim age factor override (0 = default)")
		floorFrac  = fs.Float64("floor", 0, "admission idle-memory floor fraction override (0 = default)")
		recordFile = fs.String("record", "", "record per-job activity (10ms granularity) to this JSON file")
		seriesFile = fs.String("series", "", "write the per-second cluster state series to this CSV file")
		jobsFile   = fs.String("jobscsv", "", "write per-job breakdowns to this CSV file")
		levelsArg  = fs.String("levels", "", "comma-separated levels to run as independent simulations (overrides -level)")
		parallel   = fs.Int("parallel", runner.DefaultParallelism(), "worker goroutines for -levels fan-out (1 = sequential)")
		faultsOn   = fs.Bool("faults", false, "inject workstation faults (see -mtbf, -droprate, -abortrate)")
		mtbf       = fs.Duration("mtbf", 30*time.Minute, "mean time between workstation failures (with -faults)")
		mttr       = fs.Duration("mttr", 0, "mean workstation repair time (0 = mtbf/10)")
		crashArg   = fs.String("crash", "requeue", "fate of jobs lost in a crash: kill or requeue")
		dropRate   = fs.Float64("droprate", 0, "per-node, per-period probability of losing a load-information exchange")
		abortRate  = fs.Float64("abortrate", 0, "per-attempt probability of a migration transfer dying mid-wire")
		faultSeed  = fs.Int64("faultseed", 0, "fault schedule seed (0 = faults.DefaultSeed)")
		lease      = fs.Duration("lease", 0, "reservation lease timeout for vr policies (0 = paper's drain bound)")
		domains    = fs.Int("domains", 0, "correlated failure domains (racks/zones, node ID mod N; 0 = off; with -faults)")
		domMTBF    = fs.Duration("domainmtbf", 0, "mean time between domain-wide crash waves (with -domains)")
		domMTTR    = fs.Duration("domainmttr", 0, "mean domain crash-wave repair time (0 = domainmtbf/10)")
		partMTBF   = fs.Duration("partmtbf", 0, "mean time between domain network partitions (with -domains)")
		partMTTR   = fs.Duration("partmttr", 0, "mean partition heal time (0 = partmtbf/10)")
		auditOn    = fs.Bool("audit", false, "run the invariant auditor every control period (fails the run on a violation)")
		autoscale  = fs.Int("autoscale", 0, "autoscaler fleet cap: join nodes under load, drain idle ones (0 = off)")
		metricsOn  = fs.String("metrics", "", "serve live metrics on this address (host:port) while simulating: /metrics Prometheus text, /metrics.json snapshot")
		metricsHld = fs.Duration("metricshold", 0, "keep the metrics endpoint up this long after the runs finish (with -metrics)")
		flightFile = fs.String("flightrec", "", "anomaly flight recorder: dump the last -flightring events as JSONL here on an audit violation, SLO breach, or SIGQUIT")
		flightRing = fs.Int("flightring", obs.DefaultFlightRing, "flight-recorder ring capacity in events (with -flightrec)")
		sloEpisode = fs.Duration("sloepisode", 0, "flight-recorder trigger: blocking episode open longer than this (with -flightrec)")
		sloMigrate = fs.Duration("slomigration", 0, "flight-recorder trigger: migration transfer cost above this (with -flightrec)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFaultFlags(set, *faultsOn, *mtbf, *mttr, *dropRate, *abortRate, *domains); err != nil {
		return err
	}
	if err := validateTelemetryFlags(set, *metricsOn, *flightFile, *flightRing); err != nil {
		return err
	}
	if *workFile != "" {
		if *inFile != "" && *inFile != *workFile {
			return fmt.Errorf("-workload is a deprecated alias for -in; pass only one of them")
		}
		fmt.Fprintln(os.Stderr, "vrsim: -workload is deprecated, use -in")
		*inFile = *workFile
	}

	sc := simConfig{
		policy:     *policyArg,
		quantum:    *quantum,
		maxTime:    *maxTime,
		maxRes:     *maxRes,
		faultScale: *faultScale,
		largeFrac:  *largeFrac,
		ageFactor:  *ageFactor,
		floorFrac:  *floorFrac,
		lease:      *lease,
		audit:      *auditOn,
		autoscale:  *autoscale,
		flightPath: *flightFile,
		flightRing: *flightRing,
		sloEpisode: *sloEpisode,
		sloMigrate: *sloMigrate,
	}
	if *metricsOn != "" {
		sc.metrics = obs.NewRegistry()
		srv, serr := cluster.ServeMetrics(*metricsOn, sc.metrics)
		if serr != nil {
			return serr
		}
		fmt.Fprintf(os.Stderr, "vrsim: serving metrics on http://%s/metrics\n", srv.Addr())
		defer func() {
			if err == nil && *metricsHld > 0 {
				fmt.Fprintf(os.Stderr, "vrsim: holding metrics endpoint for %v\n", *metricsHld)
				time.Sleep(*metricsHld)
			}
			srv.Close()
		}()
	}
	if *flightFile != "" {
		watchSigquit()
	}
	if *faultsOn {
		crash, err := faults.ParseCrashPolicy(*crashArg)
		if err != nil {
			return err
		}
		sc.faultPlan = faults.Plan{
			Seed:          *faultSeed,
			MTBF:          *mtbf,
			MTTR:          *mttr,
			Crash:         crash,
			DropRate:      *dropRate,
			AbortRate:     *abortRate,
			Domains:       *domains,
			DomainMTBF:    *domMTBF,
			DomainMTTR:    *domMTTR,
			PartitionMTBF: *partMTBF,
			PartitionMTTR: *partMTTR,
		}
	}

	sc.obsCap = -1
	if *obsFile != "" || *perfFile != "" {
		sc.obsCap = 0 // unbounded: exporters need the full run
	} else if *eventsN > 0 {
		sc.obsCap = *eventsN // ring: only the tail is shown
	}

	if *levelsArg != "" {
		for _, f := range []struct{ name, value string }{
			{"-in", *inFile}, {"-record", *recordFile}, {"-series", *seriesFile}, {"-jobscsv", *jobsFile},
		} {
			if f.value != "" {
				return fmt.Errorf("%s applies to a single run and cannot be combined with -levels", f.name)
			}
		}
		if *eventsN > 0 {
			return fmt.Errorf("-events applies to a single run and cannot be combined with -levels")
		}
		levels, err := parseLevels(*levelsArg)
		if err != nil {
			return err
		}
		return runLevels(sc, *group, *seed, *parallel, levels, *jsonOut, *obsFile, *perfFile)
	}

	tr, err := loadTrace(*inFile, *group, *level, *seed)
	if err != nil {
		return err
	}
	sc.record = *recordFile != ""
	c, sched, res, err := sc.simulate(tr)
	if err != nil {
		return err
	}
	if vr, ok := sched.(*core.VReconfiguration); ok {
		fmt.Fprintf(os.Stderr, "reconfig stats: %+v\n", vr.Manager().Stats())
	}
	if *recordFile != "" {
		f, err := os.Create(*recordFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := c.Recording().Encode(f); err != nil {
			return err
		}
	}
	if *seriesFile != "" {
		f, err := os.Create(*seriesFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := c.Collector().WriteCSV(f); err != nil {
			return err
		}
	}
	if *jobsFile != "" {
		f, err := os.Create(*jobsFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := metrics.WriteJobsCSV(f, c.RanJobs()); err != nil {
			return err
		}
	}
	if err := exportObs(c.Tracer(), *obsFile, *perfFile); err != nil {
		return err
	}
	if *eventsN > 0 {
		// With -json the result owns stdout; the event tail goes to stderr.
		out := os.Stdout
		if *jsonOut {
			out = os.Stderr
		}
		tr := c.Tracer()
		evs := tr.Events()
		if len(evs) > *eventsN {
			evs = evs[len(evs)-*eventsN:]
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(out, "... %d earlier events dropped by the ring\n", d)
		}
		if err := obs.WriteText(out, evs); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(res)
	}
	printResult(res)
	return nil
}

// validateFaultFlags rejects fault-flag combinations that would silently do
// nothing or configure a nonsensical plan: any fault-family flag without
// -faults, non-positive -mtbf, negative -mttr, rates outside [0, 1] (NaN
// included), and domain timing without -domains. set holds the flags
// explicitly passed on the command line.
func validateFaultFlags(set map[string]bool, faultsOn bool, mtbf, mttr time.Duration, dropRate, abortRate float64, domains int) error {
	faultFamily := []string{"mtbf", "mttr", "crash", "droprate", "abortrate", "faultseed",
		"domains", "domainmtbf", "domainmttr", "partmtbf", "partmttr"}
	if !faultsOn {
		for _, name := range faultFamily {
			if set[name] {
				return fmt.Errorf("-%s needs -faults to take effect", name)
			}
		}
		return nil
	}
	if mtbf <= 0 {
		return fmt.Errorf("-mtbf %v must be positive with -faults", mtbf)
	}
	if mttr < 0 {
		return fmt.Errorf("-mttr %v must not be negative", mttr)
	}
	// Negated so NaN, which compares false to everything, is rejected too.
	if !(dropRate >= 0 && dropRate <= 1) {
		return fmt.Errorf("-droprate %v outside [0, 1]", dropRate)
	}
	if !(abortRate >= 0 && abortRate <= 1) {
		return fmt.Errorf("-abortrate %v outside [0, 1]", abortRate)
	}
	if domains < 0 {
		return fmt.Errorf("-domains %d must not be negative", domains)
	}
	if domains == 0 {
		for _, name := range []string{"domainmtbf", "domainmttr", "partmtbf", "partmttr"} {
			if set[name] {
				return fmt.Errorf("-%s needs -domains > 0", name)
			}
		}
	}
	return nil
}

// validateTelemetryFlags rejects telemetry flags that would silently do
// nothing: -metricshold without -metrics, and flight-recorder knobs
// without -flightrec. set holds the flags explicitly passed.
func validateTelemetryFlags(set map[string]bool, metricsAddr, flightPath string, ring int) error {
	if metricsAddr == "" && set["metricshold"] {
		return fmt.Errorf("-metricshold needs -metrics to take effect")
	}
	if flightPath == "" {
		for _, name := range []string{"flightring", "sloepisode", "slomigration"} {
			if set[name] {
				return fmt.Errorf("-%s needs -flightrec to take effect", name)
			}
		}
		return nil
	}
	if ring <= 0 {
		return fmt.Errorf("-flightring %d must be positive", ring)
	}
	return nil
}

// exportObs writes the collected event trace to the requested files. A nil
// tracer with non-empty paths cannot happen: run() sizes the tracer before
// simulate whenever either path is set.
func exportObs(tr *obs.Tracer, jsonlPath, perfettoPath string) error {
	if jsonlPath != "" {
		if err := writeFileWith(jsonlPath, func(f *os.File) error {
			return obs.WriteJSONL(f, tr.Events())
		}); err != nil {
			return err
		}
	}
	if perfettoPath != "" {
		if err := writeFileWith(perfettoPath, func(f *os.File) error {
			return obs.WritePerfetto(f, tr.Events())
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeFileWith(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// levelPath derives the per-level output filename used under -levels by
// inserting "-levelN" before the extension: out.jsonl -> out-level3.jsonl.
func levelPath(path string, level int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s-level%d%s", strings.TrimSuffix(path, ext), level, ext)
}

// simConfig carries the per-simulation knobs shared by the single-run and
// the -levels fan-out paths. Every simulate call builds a fresh cluster
// and scheduler, so concurrent calls never share mutable state.
type simConfig struct {
	policy     string
	quantum    time.Duration
	maxTime    time.Duration
	maxRes     int
	faultScale float64
	largeFrac  float64
	ageFactor  float64
	floorFrac  float64
	lease      time.Duration
	faultPlan  faults.Plan
	record     bool
	audit      bool
	autoscale  int // autoscaler MaxNodes; 0 disables
	// obsCap sizes the event tracer: -1 disables tracing entirely, 0
	// keeps every event (for the file exporters), >0 keeps a bounded
	// tail (for -events).
	obsCap int

	// Live telemetry. metrics attaches a registry series per run; the
	// flight fields configure the anomaly recorder. Either forces a
	// stream tracer when tracing is otherwise disabled, so events flow
	// to the consumers without being retained.
	metrics    *obs.Registry
	flightPath string
	flightRing int
	sloEpisode time.Duration
	sloMigrate time.Duration
}

// flightRecs tracks every live flight recorder so a SIGQUIT can request a
// dump from each; the dumps happen on the simulation goroutines at their
// next event.
var (
	flightMu   sync.Mutex
	flightRecs []*obs.FlightRecorder
	sigOnce    sync.Once
)

func registerFlight(r *obs.FlightRecorder) {
	flightMu.Lock()
	flightRecs = append(flightRecs, r)
	flightMu.Unlock()
}

// watchSigquit arms the operator dump trigger: SIGQUIT asks every live
// flight recorder to dump at its next event instead of killing the
// process with a stack dump.
func watchSigquit() {
	sigOnce.Do(func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGQUIT)
		go func() {
			for range ch {
				flightMu.Lock()
				for _, r := range flightRecs {
					r.RequestDump()
				}
				flightMu.Unlock()
			}
		}()
	})
}

// flightSink writes each dump as JSONL: the first to path, later dumps to
// path.2, path.3, ... so repeated triggers never clobber the first
// artifact.
func flightSink(path string) func(string, []obs.Event) error {
	n := 0
	return func(reason string, events []obs.Event) error {
		n++
		p := path
		if n > 1 {
			p = fmt.Sprintf("%s.%d", path, n)
		}
		fmt.Fprintf(os.Stderr, "vrsim: flight recorder dump (%s): %d events -> %s\n", reason, len(events), p)
		return writeFileWith(p, func(f *os.File) error {
			return obs.WriteJSONL(f, events)
		})
	}
}

// simulate runs tr on a newly built cluster under the configured policy.
func (sc simConfig) simulate(tr *trace.Trace) (*cluster.Cluster, cluster.Scheduler, *metrics.Result, error) {
	cfg := cluster.Cluster1()
	if tr.Group == workload.Group2 {
		cfg = cluster.Cluster2()
	}
	cfg.Quantum = sc.quantum
	if sc.maxTime > 0 {
		cfg.MaxVirtualTime = sc.maxTime
	}
	if sc.faultScale > 0 {
		for i := range cfg.Nodes {
			cfg.Nodes[i].Memory.FaultScale = sc.faultScale
		}
	}
	if sc.record {
		cfg.RecordInterval = 10 * time.Millisecond
	}
	if sc.obsCap >= 0 {
		cfg.Obs = obs.NewTracer(sc.obsCap)
	} else if sc.metrics != nil || sc.flightPath != "" {
		// Telemetry without trace retention: events stream to the
		// metrics series and flight-recorder ring only.
		cfg.Obs = obs.NewStreamTracer()
	}
	if sc.flightPath != "" {
		rec := obs.NewFlightRecorder(obs.FlightConfig{
			Ring:         sc.flightRing,
			EpisodeSLO:   sc.sloEpisode,
			MigrationSLO: sc.sloMigrate,
			Sink:         flightSink(sc.flightPath),
		})
		cfg.Obs.SetFlightRecorder(rec)
		registerFlight(rec)
	}
	cfg.Faults = sc.faultPlan
	cfg.Audit = sc.audit
	if sc.autoscale > 0 {
		cfg.Autoscale = cluster.AutoscaleConfig{MaxNodes: sc.autoscale, Proto: cfg.Nodes[0]}
	}
	sched, err := buildPolicy(sc.policy, core.Options{
		MaxReserved:      sc.maxRes,
		LargeJobFraction: sc.largeFrac,
		MinAgeFactor:     sc.ageFactor,
		Lease:            sc.lease,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if sc.floorFrac > 0 {
		switch s := sched.(type) {
		case *policy.GLoadSharing:
			s.AdmitFloorFrac = sc.floorFrac
		case *core.VReconfiguration:
			s.LoadSharing().AdmitFloorFrac = sc.floorFrac
		}
	}
	if sc.metrics != nil {
		cfg.Obs.SetMetrics(sc.metrics.Series(sched.Name(), tr.Name, trace.LevelFromName(tr.Name)))
	}
	c, err := cluster.New(cfg, sched)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := c.Run(tr)
	if err != nil {
		return nil, nil, nil, err
	}
	if fr := c.Tracer().Flight(); fr != nil {
		if fr.Triggers() > 0 {
			fmt.Fprintf(os.Stderr, "vrsim: flight recorder fired %d time(s), %d dump(s) written (last: %s)\n",
				fr.Triggers(), fr.Dumps(), fr.LastReason())
		}
		if ferr := fr.Err(); ferr != nil {
			return nil, nil, nil, fmt.Errorf("flight recorder dump: %w", ferr)
		}
	}
	return c, sched, res, nil
}

// parseLevels parses the -levels comma list into distinct intensities.
func parseLevels(arg string) ([]int, error) {
	parts := strings.Split(arg, ",")
	levels := make([]int, 0, len(parts))
	seen := make(map[int]bool, len(parts))
	for _, p := range parts {
		lvl, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad level %q in -levels", p)
		}
		if seen[lvl] {
			return nil, fmt.Errorf("duplicate level %d in -levels", lvl)
		}
		seen[lvl] = true
		levels = append(levels, lvl)
	}
	return levels, nil
}

// runLevels fans the requested levels out across parallel workers, one
// independent simulation each, and prints the results in input order.
func runLevels(sc simConfig, group int, seed int64, parallel int, levels []int, jsonOut bool, obsFile, perfFile string) error {
	start := time.Now()
	timed, err := runner.MapTimed(parallel, levels, func(_ int, lvl int) (*metrics.Result, error) {
		tr, err := loadTrace("", group, lvl, seed)
		if err != nil {
			return nil, err
		}
		scl := sc
		if scl.flightPath != "" {
			scl.flightPath = levelPath(scl.flightPath, lvl)
		}
		c, _, res, err := scl.simulate(tr)
		if err != nil {
			return nil, err
		}
		var jp, pp string
		if obsFile != "" {
			jp = levelPath(obsFile, lvl)
		}
		if perfFile != "" {
			pp = levelPath(perfFile, lvl)
		}
		if err := exportObs(c.Tracer(), jp, pp); err != nil {
			return nil, err
		}
		return res, nil
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if jsonOut {
		results := make([]*metrics.Result, len(timed))
		for i := range timed {
			results[i] = timed[i].Value
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	} else {
		for i, tv := range timed {
			if i > 0 {
				fmt.Println()
			}
			printResult(tv.Value)
		}
	}
	work, speedup := runner.Speedup(timed, wall)
	fmt.Fprintf(os.Stderr, "%d levels in %v wall (%v of simulation work, %.2fx speedup, parallel=%d)\n",
		len(levels), wall.Round(time.Millisecond), work.Round(time.Millisecond), speedup, parallel)
	return nil
}

func loadTrace(file string, group, level int, seed int64) (*trace.Trace, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Decode(f)
	}
	g := workload.Group1
	if group == 2 {
		g = workload.Group2
	} else if group != 1 {
		return nil, fmt.Errorf("unknown workload group %d", group)
	}
	return trace.Standard(g, level, seed)
}

func buildPolicy(name string, opts core.Options) (cluster.Scheduler, error) {
	switch name {
	case "gls":
		return policy.NewGLoadSharing(), nil
	case "vr":
		opts.Rule = core.RuleFullDrain
		return core.NewVReconfiguration(opts)
	case "vr-early":
		opts.Rule = core.RuleEarlyFit
		return core.NewVReconfiguration(opts)
	case "vr-netram":
		opts.Rule = core.RuleFullDrain
		opts.NetworkRAM = true
		return core.NewVReconfiguration(opts)
	case "none":
		return policy.NoSharing{}, nil
	case "cpu":
		return policy.CPUSharing{}, nil
	case "suspend":
		return policy.NewSuspension(), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func printResult(r *metrics.Result) {
	fmt.Printf("trace: %s policy: %s jobs: %d\n", r.Trace, r.Policy, r.Jobs)
	fmt.Printf(" total execution time: %12.1fs\n", r.TotalExec.Seconds())
	fmt.Printf("   cpu:                %12.1fs\n", r.TotalCPU.Seconds())
	fmt.Printf("   paging:             %12.1fs\n", r.TotalPage.Seconds())
	fmt.Printf("   queuing:            %12.1fs (start wait %.1fs)\n", r.TotalQueue.Seconds(), r.TotalStartWait.Seconds())
	fmt.Printf("   migration:          %12.1fs\n", r.TotalMig.Seconds())
	fmt.Printf(" mean slowdown:        %12.3f (max %.2f)\n", r.MeanSlowdown, r.MaxSlowdown)
	fmt.Printf(" makespan:             %12.1fs\n", r.Makespan.Seconds())
	fmt.Printf(" avg idle memory:      %12.1f MB\n", r.AvgIdleMB)
	fmt.Printf(" avg job balance skew: %12.3f\n", r.AvgSkew)
	fmt.Printf(" blocking episodes: %d reservations: %d (total %s) special migrations: %d\n",
		r.BlockingEpisodes, r.Reservations, r.ReservationTime.Round(time.Second), r.ReservedMigration)
	fmt.Printf(" migrations: %d remote submissions: %d failed landings: %d pending peak: %d suspensions: %d\n",
		r.Migrations, r.RemoteSubmissions, r.FailedLandings, r.PendingPeak, r.Suspensions)
	if r.Completed != r.Jobs || r.NodeCrashes > 0 || r.RefreshDrops > 0 ||
		r.MigrationAborts > 0 || r.LeaseExpiries > 0 || r.DegradedAdmits > 0 {
		fmt.Printf(" faults: completed %d killed %d | crashes %d recoveries %d requeued %d drops %d\n",
			r.Completed, r.Killed, r.NodeCrashes, r.NodeRecoveries, r.JobsRequeued, r.RefreshDrops)
		fmt.Printf(" self-healing: aborts %d retries %d give-ups %d lease expiries %d reselections %d degraded %d local + %d admits\n",
			r.MigrationAborts, r.MigrationRetries, r.MigrationGiveUps,
			r.LeaseExpiries, r.LeaseReselections, r.DegradedLocal, r.DegradedAdmits)
	}
}
