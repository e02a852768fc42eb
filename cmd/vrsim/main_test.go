package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vrcluster/internal/core"
	"vrcluster/internal/obs"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

func TestBuildPolicy(t *testing.T) {
	for _, name := range []string{"gls", "vr", "vr-early", "vr-netram", "none", "cpu", "suspend"} {
		sched, err := buildPolicy(name, core.Options{})
		if err != nil {
			t.Errorf("buildPolicy(%q): %v", name, err)
		}
		if sched == nil || sched.Name() == "" {
			t.Errorf("buildPolicy(%q) returned unusable scheduler", name)
		}
	}
	if _, err := buildPolicy("bogus", core.Options{}); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestLoadTrace(t *testing.T) {
	tr, err := loadTrace("", 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "App-Trace-1" {
		t.Errorf("name = %q", tr.Name)
	}
	if _, err := loadTrace("", 3, 1, 1); err == nil {
		t.Error("unknown group should fail")
	}
	if _, err := loadTrace("/nonexistent/trace.json", 1, 1, 1); err == nil {
		t.Error("missing file should fail")
	}

	// Round-trip through a file.
	dir := t.TempDir()
	path := filepath.Join(dir, "t.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := loadTrace(path, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || len(back.Items) != len(tr.Items) {
		t.Error("file round trip lost data")
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-policy", "bogus"}); err == nil {
		t.Error("unknown policy should fail")
	}
	if err := run([]string{"-group", "9"}); err == nil {
		t.Error("unknown group should fail")
	}
	if err := run([]string{"-faults", "-crash", "bogus"}); err == nil {
		t.Error("unknown crash policy should fail")
	}
	if err := run([]string{"-droprate", "0.5"}); err == nil {
		t.Error("fault knobs without -faults should fail")
	}
	if err := run([]string{"-faults", "-droprate", "1.5"}); err == nil {
		t.Error("out-of-range drop rate should fail")
	}
}

// TestValidateFaultFlagCombos covers the flag cross-validation matrix: every
// fault-family flag needs -faults, the domain timing knobs need -domains,
// and rates and durations are range-checked before any simulation starts.
func TestValidateFaultFlagCombos(t *testing.T) {
	bad := [][]string{
		{"-mtbf", "10m"},                                  // fault knob without -faults
		{"-domains", "4"},                                 // domain knob without -faults
		{"-faultseed", "9"},                               // seed without -faults
		{"-faults", "-mtbf", "0s"},                        // non-positive MTBF
		{"-faults", "-mtbf", "-10m"},                      // negative MTBF
		{"-faults", "-mttr", "-1s"},                       // negative MTTR
		{"-faults", "-abortrate", "-0.1"},                 // rate below 0
		{"-faults", "-abortrate", "1.01"},                 // rate above 1
		{"-faults", "-abortrate", "NaN"},                  // NaN aborts every migration
		{"-faults", "-droprate", "NaN"},                   // NaN rate
		{"-faults", "-droprate", "+Inf"},                  // infinite rate
		{"-faults", "-domains", "-1"},                     // negative domain count
		{"-faults", "-domainmtbf", "10m"},                 // domain timing without -domains
		{"-faults", "-partmtbf", "10m"},                   // partition timing without -domains
		{"-faults", "-domains", "0", "-domainmttr", "1m"}, // explicit zero domains
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail flag validation", args)
		}
	}
	// The messages must name the offending flag so the error is actionable.
	err := run([]string{"-partmttr", "1m"})
	if err == nil || !strings.Contains(err.Error(), "-partmttr") {
		t.Errorf("error should name the flag, got: %v", err)
	}
	err = run([]string{"-faults", "-domainmtbf", "5m"})
	if err == nil || !strings.Contains(err.Error(), "-domains") {
		t.Errorf("error should point at -domains, got: %v", err)
	}
}

func TestRunSmallSimulation(t *testing.T) {
	// Generate a tiny custom trace, then simulate it end to end.
	dir := t.TempDir()
	path := filepath.Join(dir, "small.json")
	tr, err := trace.Generate(trace.Config{
		Name:     "small",
		Group:    workload.Group2,
		Sigma:    2,
		Mu:       2,
		Jobs:     20,
		Duration: 300 * 1e9, // 300 s
		Nodes:    32,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-policy", "vr", "-json"}); err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
}

func TestRunObsExports(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "out.jsonl")
	perf := filepath.Join(dir, "out.json")
	err := run([]string{"-group", "2", "-level", "1", "-policy", "vr", "-json",
		"-trace", jsonl, "-perfetto", perf, "-events", "5"})
	if err != nil {
		t.Fatalf("traced run failed: %v", err)
	}
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("exported JSONL does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("traced run produced no events")
	}
	counts := obs.CountByKind(events)
	for _, k := range []obs.Kind{obs.KindJobSubmit, obs.KindJobAdmit, obs.KindJobDone, obs.KindNodeSample} {
		if counts[k] == 0 {
			t.Errorf("trace has no %v events", k)
		}
	}
	raw, err := os.ReadFile(perf)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto export has no trace events")
	}
}

func TestRunLevelsObsExports(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "out.jsonl")
	err := run([]string{"-group", "1", "-levels", "1,2", "-policy", "vr", "-parallel", "2", "-json",
		"-trace", jsonl})
	if err != nil {
		t.Fatalf("traced fan-out failed: %v", err)
	}
	for _, lvl := range []int{1, 2} {
		path := levelPath(jsonl, lvl)
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("missing per-level trace: %v", err)
		}
		events, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatalf("level %d trace does not parse: %v", lvl, err)
		}
		if len(events) == 0 {
			t.Fatalf("level %d trace is empty", lvl)
		}
	}
}

func TestLevelPath(t *testing.T) {
	for _, tc := range []struct {
		in   string
		lvl  int
		want string
	}{
		{"out.jsonl", 3, "out-level3.jsonl"},
		{"dir/run.json", 1, "dir/run-level1.json"},
		{"noext", 2, "noext-level2"},
	} {
		if got := levelPath(tc.in, tc.lvl); got != tc.want {
			t.Errorf("levelPath(%q, %d) = %q, want %q", tc.in, tc.lvl, got, tc.want)
		}
	}
}

func TestRunWithFaults(t *testing.T) {
	// End-to-end fault injection through the CLI path: crashes, stale
	// exchanges, aborted transfers, and leases all enabled at once.
	err := run([]string{"-group", "2", "-level", "1", "-policy", "vr", "-json",
		"-faults", "-mtbf", "30m", "-mttr", "1m", "-crash", "requeue",
		"-droprate", "0.1", "-abortrate", "0.2", "-faultseed", "7", "-lease", "30s"})
	if err != nil {
		t.Fatalf("faulty run failed: %v", err)
	}
}

func TestParseLevels(t *testing.T) {
	levels, err := parseLevels("1, 3 ,5")
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 || levels[0] != 1 || levels[1] != 3 || levels[2] != 5 {
		t.Errorf("parseLevels = %v", levels)
	}
	if _, err := parseLevels("1,x"); err == nil {
		t.Error("non-numeric level should fail")
	}
	if _, err := parseLevels("2,2"); err == nil {
		t.Error("duplicate level should fail")
	}
	if _, err := parseLevels(""); err == nil {
		t.Error("empty list should fail")
	}
}

func TestLevelsFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-levels", "1", "-in", "t.json"},
		{"-levels", "1", "-record", "r.json"},
		{"-levels", "1", "-series", "s.csv"},
		{"-levels", "1", "-jobscsv", "j.csv"},
		{"-levels", "1", "-events", "10"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should reject the single-run output flag", args)
		}
	}
	if err := run([]string{"-levels", "9"}); err == nil {
		t.Error("out-of-range level should fail")
	}
}

func TestRunLevelsFanOut(t *testing.T) {
	// Two levels through the worker pool end to end; determinism against
	// the sequential path is pinned in internal/experiments.
	if err := run([]string{"-group", "1", "-levels", "1,2", "-policy", "gls", "-parallel", "2", "-json"}); err != nil {
		t.Fatalf("fan-out run failed: %v", err)
	}
}
