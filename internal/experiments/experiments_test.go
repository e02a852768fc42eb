package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"vrcluster/internal/faults"
	"vrcluster/internal/workload"
)

// fastConfig runs just the lightest trace of group 2 to keep the test
// suite quick.
func fastConfig() RunConfig {
	return RunConfig{
		Group:   workload.Group2,
		Quantum: 100 * time.Millisecond,
		Levels:  []int{1},
	}
}

func TestRunConfigValidation(t *testing.T) {
	bad := RunConfig{Group: 9}
	if _, err := Run(bad); err == nil {
		t.Error("unknown group should fail")
	}
	badLevel := fastConfig()
	badLevel.Levels = []int{7}
	if _, err := Run(badLevel); err == nil {
		t.Error("out-of-range level should fail")
	}
	dupLevel := fastConfig()
	dupLevel.Levels = []int{1, 2, 1}
	if _, err := Run(dupLevel); err == nil || !strings.Contains(err.Error(), "duplicate level 1") {
		t.Errorf("duplicate level: err = %v, want duplicate level 1", err)
	}
}

func TestRunProducesPairedResults(t *testing.T) {
	gr, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Levels) != 1 {
		t.Fatalf("levels = %d", len(gr.Levels))
	}
	lr := gr.Levels[0]
	if lr.Base.Policy != "G-Loadsharing" || lr.VR.Policy != "V-Reconfiguration" {
		t.Errorf("policies = %q, %q", lr.Base.Policy, lr.VR.Policy)
	}
	if lr.Base.Trace != lr.VR.Trace {
		t.Error("paired runs used different traces")
	}
	if lr.Base.Jobs != lr.VR.Jobs {
		t.Error("paired runs completed different job counts")
	}
	// The headline result: V-R must beat the baseline on the standard
	// traces.
	if lr.VR.TotalExec >= lr.Base.TotalExec {
		t.Errorf("V-R exec %v not below baseline %v", lr.VR.TotalExec, lr.Base.TotalExec)
	}
	if !lr.Gain.ConditionHolds() {
		t.Error("Section 5 gain condition should hold")
	}
}

func TestFigureTables(t *testing.T) {
	gr, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	eq := gr.ExecQueueTables()
	if len(eq) != 2 {
		t.Fatalf("ExecQueueTables = %d tables", len(eq))
	}
	if !strings.HasPrefix(eq[0].ID, "Figure 3") {
		t.Errorf("group 2 should map to Figure 3, got %q", eq[0].ID)
	}
	for _, tab := range eq {
		if len(tab.Rows) != 1 {
			t.Fatalf("%s has %d rows", tab.ID, len(tab.Rows))
		}
		r := tab.Rows[0]
		if r.Base <= 0 || r.VR <= 0 {
			t.Errorf("%s row has nonpositive values: %+v", tab.ID, r)
		}
		if r.Reduction <= 0 {
			t.Errorf("%s reduction = %v, want positive", tab.ID, r.Reduction)
		}
	}
	sl := gr.SlowdownTables()
	if len(sl) != 2 || !strings.HasPrefix(sl[0].ID, "Figure 4") {
		t.Fatalf("SlowdownTables = %+v", sl)
	}
	// App-Trace-1's paper reductions are unpublished ("modest").
	if !math.IsNaN(sl[0].Rows[0].PaperReduction) {
		t.Error("unpublished paper value should be NaN")
	}
}

func TestGroup1FigureIDs(t *testing.T) {
	gr := &GroupRuns{Group: workload.Group1}
	if got := gr.ExecQueueTables()[0].ID; !strings.HasPrefix(got, "Figure 1") {
		t.Errorf("group 1 exec table = %q", got)
	}
	if got := gr.SlowdownTables()[1].ID; !strings.HasPrefix(got, "Figure 2") {
		t.Errorf("group 1 idle table = %q", got)
	}
}

func TestIntervalInsensitivity(t *testing.T) {
	gr, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := gr.IntervalInsensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The paper's claim: averages are nearly identical across
		// intervals. Allow 10% drift between 1 s and 1 min sampling.
		if r.Idle[0] > 0 {
			drift := math.Abs(r.Idle[3]-r.Idle[0]) / r.Idle[0]
			if drift > 0.10 {
				t.Errorf("%s/%s idle drift %.1f%% across intervals", r.Trace, r.Policy, drift*100)
			}
		}
	}
}

func TestAnalyticCheck(t *testing.T) {
	gr, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := gr.AnalyticCheck(100 * time.Millisecond)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if !r.IdentityOK {
		t.Error("Section 5 identity failed")
	}
	if !r.ConditionHolds {
		t.Error("gain condition failed")
	}
	if r.MeasuredGain <= 0 {
		t.Errorf("measured gain = %v", r.MeasuredGain)
	}
	// The model approximation should land within 25% of the measured
	// gain (the paper argues DeltaMig is insignificant).
	if math.Abs(r.PredictionError) > 0.25 {
		t.Errorf("prediction error = %.1f%%", r.PredictionError*100)
	}
}

func TestCatalogTable(t *testing.T) {
	rows, err := CatalogTable(workload.Group1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Errorf("Table 1 has %d rows, want 6", len(rows))
	}
	rows, err = CatalogTable(workload.Group2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Errorf("Table 2 has %d rows, want 7", len(rows))
	}
	// metis keeps its published range notation.
	found := false
	for _, r := range rows {
		if r.Program == "metis" && strings.Contains(r.WorkingSet, "-") {
			found = true
		}
	}
	if !found {
		t.Error("metis range notation missing")
	}
	if _, err := CatalogTable(workload.Group(9)); err == nil {
		t.Error("unknown group should fail")
	}
}

func TestRendering(t *testing.T) {
	gr, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderGroup(&buf, gr, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 3", "Figure 4", "App-Trace-1", "Section 5", "insensitivity"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
	buf.Reset()
	if err := RenderCatalog(&buf, workload.Group1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "apsi") {
		t.Error("catalog rendering missing apsi")
	}
}

func TestAblationRules(t *testing.T) {
	results, err := AblationRules(fastConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("variants = %d", len(results))
	}
	byName := map[string]*AblationResult{}
	for i := range results {
		byName[results[i].Variant] = &results[i]
	}
	for _, name := range []string{"no-sharing", "cpu-sharing", "g-loadsharing", "suspension", "vr-full-drain", "vr-early-fit"} {
		if byName[name] == nil {
			t.Errorf("variant %s missing", name)
		}
	}
	// Sanity ordering: memory-blind policies must lose to memory-aware
	// ones on a memory-bound workload.
	if byName["no-sharing"].Result.TotalExec < byName["g-loadsharing"].Result.TotalExec {
		t.Error("no-sharing beat G-Loadsharing on a memory-bound workload")
	}
	var buf bytes.Buffer
	if err := RenderAblation(&buf, "test", results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vr-full-drain") {
		t.Error("ablation rendering incomplete")
	}
}

func TestAblationReservationCap(t *testing.T) {
	results, err := AblationReservationCap(fastConfig(), 1, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Result.Reservations > results[1].Result.Reservations {
		t.Errorf("cap 1 made more reservations (%d) than cap 8 (%d)",
			results[0].Result.Reservations, results[1].Result.Reservations)
	}
}

func TestAblationExchangePeriod(t *testing.T) {
	results, err := AblationExchangePeriod(fastConfig(), 1, []time.Duration{time.Second, 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Result.Jobs == 0 {
			t.Errorf("%s completed no jobs", r.Variant)
		}
	}
}

func TestAblationBigJobs(t *testing.T) {
	cfg := fastConfig()
	cfg.Group = workload.Group1
	results, err := AblationBigJobs(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// Section 2.3: with big jobs dominant the reconfiguration should not
	// provide a meaningful win; permit anything from modest win to
	// modest loss but flag a large swing either way.
	red := 1 - results[1].Result.TotalExec.Seconds()/results[0].Result.TotalExec.Seconds()
	if red > 0.5 || red < -0.5 {
		t.Errorf("big-job-dominant reduction = %.1f%% (expected near zero)", red*100)
	}
}

func TestAblationHeterogeneous(t *testing.T) {
	cfg := fastConfig()
	cfg.Group = workload.Group1
	results, err := AblationHeterogeneous(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Result.Jobs == 0 {
			t.Errorf("%s completed no jobs", r.Variant)
		}
	}
}

func TestAblationNetworkRAM(t *testing.T) {
	cfg := fastConfig()
	cfg.Group = workload.Group1
	results, err := AblationNetworkRAM(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	disk, nram := results[0].Result, results[1].Result
	if disk.Jobs != nram.Jobs {
		t.Error("variants completed different job counts")
	}
	// Network RAM over 10 Mbps beats the 10 ms disk for oversized jobs;
	// it should never lose badly.
	if nram.TotalExec.Seconds() > disk.TotalExec.Seconds()*1.1 {
		t.Errorf("network RAM (%v) much worse than disk paging (%v)",
			nram.TotalExec, disk.TotalExec)
	}
}

func TestAblationSharedNetwork(t *testing.T) {
	results, err := AblationSharedNetwork(fastConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]*AblationResult{}
	for i := range results {
		if results[i].Result.Jobs == 0 {
			t.Errorf("%s completed no jobs", results[i].Variant)
		}
		byName[results[i].Variant] = &results[i]
	}
	for _, name := range []string{"gls/dedicated", "vr/dedicated", "gls/shared", "vr/shared"} {
		if byName[name] == nil {
			t.Fatalf("variant %s missing", name)
		}
	}
	// Contention can only lengthen V-R's migrations.
	if byName["vr/shared"].Result.TotalMig < byName["vr/dedicated"].Result.TotalMig {
		t.Errorf("shared Ethernet migration time %v below dedicated %v",
			byName["vr/shared"].Result.TotalMig, byName["vr/dedicated"].Result.TotalMig)
	}
}

func TestSeedSensitivity(t *testing.T) {
	rows, err := SeedSensitivity(fastConfig(), 1, []int64{7, 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Exec <= -0.5 || r.Exec >= 1 {
			t.Errorf("seed %d exec reduction %v implausible", r.Seed, r.Exec)
		}
	}
	var buf bytes.Buffer
	if err := RenderSeedRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean") {
		t.Error("seed rendering missing aggregate")
	}
	if _, err := SeedSensitivity(fastConfig(), 1, nil); err == nil {
		t.Error("empty seed list should fail")
	}
}

// Seed sweeps must be order- and content-identical under fan-out.
func TestParallelSeedSensitivityMatchesSequential(t *testing.T) {
	cfg := fastConfig()
	seeds := []int64{7, 21, 42}
	seq := cfg
	seq.Parallel = 1
	par := cfg
	par.Parallel = 3
	a, err := SeedSensitivity(seq, 1, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SeedSensitivity(par, 1, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed rows differ:\nsequential: %+v\nparallel:   %+v", a, b)
	}
}

func TestGroupRunsSpeedupReporting(t *testing.T) {
	gr, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gr.Wall <= 0 || gr.Work <= 0 {
		t.Errorf("wall/work = %v/%v, want positive", gr.Wall, gr.Work)
	}
	if gr.Levels[0].Elapsed <= 0 {
		t.Error("per-level elapsed not recorded")
	}
	if gr.Speedup() <= 0 {
		t.Errorf("speedup = %v", gr.Speedup())
	}
	if (&GroupRuns{}).Speedup() != 0 {
		t.Error("zero-wall speedup should be 0")
	}
}

// TestFaultSweepNoWedge is the robustness acceptance check: down to an
// MTBF of 10x the mean job runtime, every job either completes or is
// recorded killed, and the self-healing counters are visible.
func TestFaultSweepNoWedge(t *testing.T) {
	cfg := RunConfig{Group: workload.Group1, Quantum: 100 * time.Millisecond}
	plan := faults.Plan{Crash: faults.Requeue, DropRate: 0.1, AbortRate: 0.2}
	rows, err := FaultSweep(cfg, 1, plan, []float64{50, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		res := r.Result
		if res.NodeCrashes == 0 {
			t.Errorf("MTBF %v: no crashes injected", r.MTBF)
		}
		if res.Completed+res.Killed != res.Jobs {
			t.Errorf("MTBF %v: %d completed + %d killed of %d", r.MTBF, res.Completed, res.Killed, res.Jobs)
		}
		if res.MigrationAborts == 0 {
			t.Errorf("MTBF %v: no transfer aborts at rate 0.2", r.MTBF)
		}
		if res.RefreshDrops == 0 {
			t.Errorf("MTBF %v: no exchange drops at rate 0.1", r.MTBF)
		}
	}
	if rows[0].MTBF <= rows[1].MTBF {
		t.Error("multiples must map to decreasing MTBF")
	}
	var buf bytes.Buffer
	if err := RenderFaultRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fault sweep") {
		t.Error("render missing header")
	}
}

func TestFaultSweepValidation(t *testing.T) {
	cfg := RunConfig{Group: workload.Group1}
	if _, err := FaultSweep(cfg, 0, faults.Plan{}, nil); err == nil {
		t.Error("level 0 should fail")
	}
	if _, err := FaultSweep(cfg, 1, faults.Plan{}, []float64{-1}); err == nil {
		t.Error("negative multiple should fail")
	}
	if _, err := FaultSweep(RunConfig{Group: 99}, 1, faults.Plan{}, nil); err == nil {
		t.Error("bad group should fail")
	}
}

// TestChaosSweepValidation rejects malformed grid configurations.
func TestChaosSweepValidation(t *testing.T) {
	if _, err := ChaosSweep(RunConfig{Group: 99}, nil); err == nil {
		t.Error("bad group should fail")
	}
}
