package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one printed number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is one workload run: trace 0 carries the end-to-end metrics,
// trace 1 the per-layer ones.
type runResult struct {
	Workload  string   `json:"workload"`
	Trace     int      `json:"trace"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Passes    int      `json:"passes"`
	Pool      int      `json:"pool"`
	Digest    string   `json:"digest"` // pool entry 0
	Model     *model   `json:"model,omitempty"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
}

type resultFile struct {
	Env  envInfo      `json:"env"`
	Runs []*runResult `json:"runs"`
}

func (r *runResult) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit})
}

// fail records one failed check.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// check counts the passes of one child and fails those that erred or
// whose digest differs from the committed golden for this seed.
func (r *runResult) check(rep *childReport, golden []string) {
	if len(golden) > 0 && rep.Warm.Digest != golden[0] {
		r.fail("warm pass digest %.12s differs from golden %.12s", rep.Warm.Digest, golden[0])
	}
	for _, passes := range [][]passRecord{rep.Passes, rep.Traced} {
		r.Attempted += len(passes)
		for i, p := range passes {
			switch {
			case p.Err != "":
				r.fail("pass %d (entry %d): %s", i, p.Index, p.Err)
			case p.Index < len(golden) && p.Digest != golden[p.Index]:
				r.fail("pass %d (entry %d): digest %.12s differs from golden %.12s", i, p.Index, p.Digest, golden[p.Index])
			}
		}
	}
	r.Correct = r.Failed == 0
}

// runChild starts one child and waits for it. The context's deadline kills
// a child that overruns.
func runChild(ctx context.Context, kind string, w *benchWorkload, o options, seconds float64) (*childReport, float64, error) {
	cmd := exec.CommandContext(ctx, o.exe, "-child", kind, "-workload", w.name,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(seconds), "-first", fmt.Sprint(o.first))
	cmd.Env = append(os.Environ(), fmt.Sprint("GOMAXPROCS=", childProcs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", kind, err)
	}
	rep := &childReport{}
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, 0, fmt.Errorf("%s child report: %w", kind, err)
	}
	rssMB := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	return rep, rssMB, nil
}

// endToEndRun measures the end-to-end metrics with timedChildren timed
// children, each given an equal share of the seconds and its own stretch
// of the pool to start from.
func endToEndRun(ctx context.Context, w *benchWorkload, o options, golden goldenFile) (*runResult, error) {
	var reps []*childReport
	var rssMB []float64
	for i := 0; i < timedChildren; i++ {
		co := o
		co.first = i * w.pool / timedChildren
		rep, rss, err := runChild(ctx, "timed", w, co, o.seconds/timedChildren)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		rssMB = append(rssMB, rss)
	}
	r := newRun(w, o, 0, reps[0])
	r.Passes = 0
	for _, rep := range reps {
		r.check(rep, golden.lookup(w.name, o.seed))
		r.Passes += len(rep.Passes)
	}
	endToEndMetrics(r, reps, rssMB)
	return r, nil
}

// endToEndMetrics adds every end-to-end metric, in BENCHMARK.json's order,
// over the passes of every timed child. Pass times are each pass's CPU
// seconds scaled to the reference host by the calibration rounds around
// it; a child's set-up time is scaled by the rounds it ran after set-up.
// The peak RSS and the set-up time are medians over the children.
func endToEndMetrics(r *runResult, reps []*childReport, rssMB []float64) {
	var secs, setupS []float64
	jobs, alloc := 0, uint64(0)
	for _, rep := range reps {
		setupS = append(setupS, rep.SetupS*hostScale(rep.SetupCalib))
		for _, p := range rep.Passes {
			secs = append(secs, p.CPUSeconds*calibRefSeconds/p.Calib)
			jobs += p.Jobs
			alloc += p.AllocBytes
		}
	}
	sort.Float64s(secs)
	r.add("pass_ref_s.p50", quantile(secs, 0.5), "s")
	r.add("pass_ref_s.p90", quantile(secs, 0.9), "s")
	r.add("jobs_per_ref_s", float64(jobs)/sum(secs), "1/s")
	r.add("alloc_mb.pass", float64(alloc)/float64(len(secs))/1e6, "MB")
	r.add("rss_mb.max", median(rssMB), "MB")
	r.add("setup_s", median(setupS), "s")
}

// layerRun measures the per-layer metrics: the paired child for half the
// time, then the profiled child for the other half. Digests and counts
// must agree exactly between every untraced, traced and profiled pass over
// the same pool entry.
func layerRun(ctx context.Context, w *benchWorkload, o options, golden goldenFile) (*runResult, error) {
	half := o
	half.seconds = o.seconds / 2
	paired, _, err := runChild(ctx, "paired", w, half, half.seconds)
	if err != nil {
		return nil, err
	}
	profiled, _, err := runChild(ctx, "profiled", w, half, half.seconds)
	if err != nil {
		return nil, err
	}
	shares, err := attributeProfile(profilePath(w.name))
	if err != nil {
		return nil, err
	}
	r := newRun(w, o, 1, paired)
	g := golden.lookup(w.name, o.seed)
	r.check(paired, g)
	r.check(profiled, g)
	r.agree("traced", paired.Passes, paired.Traced)
	r.agree("profiled", paired.Passes, profiled.Passes)
	layerMetrics(r, paired, profiled, shares)
	return r, nil
}

// agree fails every pool entry whose digest or counts differ between two
// sets of passes.
func (r *runResult) agree(what string, base, other []passRecord) {
	first := firstByIndex(base)
	shared := 0
	for idx, o := range firstByIndex(other) {
		b, ok := first[idx]
		if !ok {
			continue
		}
		shared++
		if b.Digest != o.Digest {
			r.fail("entry %d: %s digest %.12s differs from untraced %.12s", idx, what, o.Digest, b.Digest)
		}
		if b.Counts != o.Counts {
			r.fail("entry %d: %s counts %+v differ from untraced %+v", idx, what, o.Counts, b.Counts)
		}
	}
	if shared == 0 {
		r.fail("no pool entry ran both untraced and %s", what)
	}
	r.Correct = r.Failed == 0
}

func firstByIndex(passes []passRecord) map[int]passRecord {
	m := make(map[int]passRecord, len(passes))
	for _, p := range passes {
		if _, ok := m[p.Index]; !ok {
			m[p.Index] = p
		}
	}
	return m
}

// layerMetrics adds every per-layer metric, in BENCHMARK.json's order.
// Span times and counts are per traced pass, profile times per profiled
// pass, except trace.generate, which runs at set-up and is reported as the
// set-up total. Span times are wall time, profile times CPU time.
// trace_overhead is the median over the paired child's pairs of traced
// over untraced CPU seconds, less one. The last three describe the host:
// the untraced passes' median CPU and wall time, unscaled, and the median
// calibration round after set-up, against calibRefSeconds on the reference
// host.
func layerMetrics(r *runResult, paired, profiled *childReport, shares profileShares) {
	n := float64(len(paired.Traced))
	sp := paired.Spans
	for _, name := range spanNames {
		calls, selfMS := float64(sp.Calls[name]), float64(sp.SelfNs[name])/1e6
		if name != spanNames[spanTraceGenerate] {
			calls, selfMS = calls/n, selfMS/n
		}
		r.add(name+".calls", calls, "count")
		r.add(name+".self_ms", selfMS, "ms")
	}
	r.add("policy.place.refused_ratio", ratio(float64(sp.PlaceRefused), float64(sp.Calls[spanNames[spanPolicyPlace]])), "ratio")

	np := float64(len(profiled.Passes))
	for _, pkg := range append(append([]string{}, layerPackages...), gcBucket, otherBucket) {
		r.add(pkg+".self_ms", shares.ms[pkg]/np, "ms")
	}
	r.add("prof.samples", float64(shares.samples), "count")
	r.add("prof.self_ms_sum", shares.totalMS()/np, "ms")
	r.add("profiled.pass_ms", 1e3*sum(passCPUSeconds(profiled.Passes))/np, "ms")

	var c counts
	for _, p := range paired.Traced {
		c.add(p.Counts)
	}
	r.add("loadinfo.selects", float64(c.Selects)/n, "count")
	r.add("loadinfo.scanned_per_select", ratio(float64(c.Scanned), float64(c.Selects)), "count")
	r.add("core.reservations", float64(c.Reservations)/n, "count")
	r.add("core.useful_ratio", ratio(float64(c.ReservedMigration), float64(c.Reservations)), "ratio")
	r.add("cluster.migrations", float64(c.Migrations)/n, "count")
	r.add("cluster.failed_landings", float64(c.FailedLandings)/n, "count")
	r.add("netlink.abort_ratio", ratio(float64(c.Aborts), float64(c.Migrations+c.Aborts)), "ratio")
	r.add("netlink.giveups", float64(c.GiveUps)/n, "count")
	r.add("faults.crashes", float64(c.Crashes)/n, "count")
	r.add("faults.refresh_drops", float64(c.RefreshDrops)/n, "count")
	r.add("audit.checks", float64(c.AuditChecks)/n, "count")
	r.add("audit.violations", float64(c.AuditViolations)/n, "count")
	r.add("obs.events", float64(c.ObsEvents)/n, "count")
	r.add("obs.flight_dumps", float64(c.FlightDumps)/n, "count")
	r.add("sim.virtual_s", float64(c.VirtualNs)/1e9/n, "s")
	r.add("experiments.cells", float64(c.Cells)/n, "count")

	ratios := make([]float64, len(paired.Traced))
	for i, t := range paired.Traced {
		ratios[i] = t.CPUSeconds / paired.Passes[i].CPUSeconds
	}
	sort.Float64s(ratios)
	r.add("trace_overhead", quantile(ratios, 0.5)-1, "ratio")
	wall := make([]float64, len(paired.Passes))
	for i, p := range paired.Passes {
		wall[i] = p.Seconds
	}
	sort.Float64s(wall)
	r.add("pass_cpu_s.p50", quantile(passCPUSeconds(paired.Passes), 0.5), "s")
	r.add("pass_wall_s.p50", quantile(wall, 0.5), "s")
	r.add("calib_ms", 1e3*median(paired.SetupCalib), "ms")
}

func (c *counts) add(o counts) {
	c.Selects += o.Selects
	c.Scanned += o.Scanned
	c.Reservations += o.Reservations
	c.ReservedMigration += o.ReservedMigration
	c.Migrations += o.Migrations
	c.FailedLandings += o.FailedLandings
	c.Aborts += o.Aborts
	c.GiveUps += o.GiveUps
	c.Crashes += o.Crashes
	c.RefreshDrops += o.RefreshDrops
	c.AuditChecks += o.AuditChecks
	c.AuditViolations += o.AuditViolations
	c.ObsEvents += o.ObsEvents
	c.FlightDumps += o.FlightDumps
	c.VirtualNs += o.VirtualNs
	c.Cells += o.Cells
}

func newRun(w *benchWorkload, o options, trace int, rep *childReport) *runResult {
	return &runResult{
		Workload: w.name,
		Trace:    trace,
		Seed:     o.seed,
		Passes:   len(rep.Passes),
		Pool:     rep.Pool,
		Digest:   rep.Warm.Digest,
		Model:    rep.Warm.Model,
	}
}

// passCPUSeconds returns the passes' CPU seconds, sorted.
func passCPUSeconds(passes []passRecord) []float64 {
	s := make([]float64, len(passes))
	for i, p := range passes {
		s[i] = p.CPUSeconds
	}
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median returns the median of xs, which it leaves unsorted.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// goldenFile maps workload and seed to the digests of the first pool
// entries; `go test -run TestGolden -update` regenerates it.
type goldenFile map[string]map[string][]string

func loadGolden(path string) (goldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := goldenFile{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g goldenFile) lookup(workload string, seed int64) []string {
	return g[workload][fmt.Sprint(seed)]
}

// envInfo records what the numbers were measured on.
type envInfo struct {
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"` // every child's
	NumCPU     int            `json:"num_cpu"`
	CPUModel   string         `json:"cpu_model"`
	Commit     string         `json:"commit,omitempty"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Passes     map[string]int `json:"passes"` // timed passes per workload and trace mode
}

func captureEnv(o options) envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: childProcs,
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Passes:     make(map[string]int),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git in the working
// directory, without running git; it is empty outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return ""
}

func printHeader(e envInfo) {
	commit := e.Commit
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("# vrcluster bench: %s %s/%s GOMAXPROCS=%d NumCPU=%d cpu=%q commit=%s\n",
		e.GoVersion, e.GOOS, e.GOARCH, e.GOMAXPROCS, e.NumCPU, e.CPUModel, commit)
	fmt.Printf("# seed=%d seconds=%g closed loop, 1 client, one child process at a time\n", e.Seed, e.Seconds)
}

func printRun(r *runResult) {
	kind := "end-to-end"
	if r.Trace == 1 {
		kind = "per-layer (traced)"
	}
	fmt.Printf("## %s %s: %d timed passes over a pool of %d inputs, digest(entry 0)=%.16s", r.Workload, kind, r.Passes, r.Pool, r.Digest)
	if r.Model != nil {
		fmt.Printf(" V-Reconfiguration exec %.1f%% queue %.1f%% reduction", r.Model.ExecPct, r.Model.QueuePct)
	}
	fmt.Println()
	for _, m := range r.Metrics {
		fmt.Printf("%-10s %-30s %14.6g %s\n", r.Workload, m.Name, m.Value, m.Unit)
	}
	fmt.Printf("%-10s %-30s %14d/%d failed/attempted\n", r.Workload, "fail_ratio", r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Printf("%-10s FAIL %s\n", r.Workload, p)
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
