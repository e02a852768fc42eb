package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"time"

	"vrcluster/internal/obs"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

func TestGenerateStandardToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	if err := run([]string{"-group", "2", "-level", "1", "-o", path}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("empty trace file")
	}
	// Inspecting the file must succeed.
	if err := run([]string{"-inspect", path}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateCustom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	args := []string{
		"-group", "1", "-jobs", "10", "-duration", "5m",
		"-sigma", "2", "-mu", "2", "-nodes", "4", "-o", path,
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-inspect", path}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateFarTail asks for submit times drawn from a lognormal whose
// median lies far beyond the trace's window: every draw is clamped to the
// window, so generation succeeds.
func TestGenerateFarTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.json")
	args := []string{"-jobs", "5", "-duration", "10m", "-sigma", "100", "-mu", "200", "-o", path}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-inspect", path}); err != nil {
		t.Fatal(err)
	}
}

func TestInspectReportsPhasePercentiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	if err := run([]string{"-group", "1", "-level", "2", "-o", path}); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	inspectErr := run([]string{"-inspect", path})
	w.Close()
	os.Stdout = old
	raw, _ := io.ReadAll(r)
	if inspectErr != nil {
		t.Fatal(inspectErr)
	}
	out := string(raw)
	for _, want := range []string{"memory demand by phase", "phase 1:", "phase 2:", "p50", "p95", "max"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestDemandHistogram(t *testing.T) {
	// Degenerate: all demands equal.
	h := demandHistogram([]float64{64, 64, 64})
	if p50, _ := h.Percentile(50); p50 != 64 {
		t.Errorf("degenerate p50 = %v, want 64", p50)
	}
	// Spread: percentiles bounded by observed range.
	h = demandHistogram([]float64{10, 20, 30, 40, 200})
	p95, _ := h.Percentile(95)
	mx, _ := h.Max()
	if mx != 200 || p95 > 200 || p95 < 10 {
		t.Errorf("p95 = %v max = %v out of range", p95, mx)
	}
	if h.N() != 5 {
		t.Errorf("N = %d, want 5", h.N())
	}
}

func TestPhaseDemandCoversRangedPrograms(t *testing.T) {
	// Group 2 includes metis with a ranged working set (4 phases); make
	// sure the per-phase breakdown handles jobs of differing phase counts.
	tr, err := trace.Standard(workload.Group2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := printPhaseDemand(tr); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-group", "9", "-level", "1"}); err == nil {
		t.Error("unknown group should fail")
	}
	if err := run([]string{"-group", "1"}); err == nil {
		t.Error("custom generation without parameters should fail")
	}
	if err := run([]string{"-inspect", "/nonexistent.json"}); err == nil {
		t.Error("missing inspect file should fail")
	}
	// A non-finite lognormal parameter fails before synthesis, naming
	// the field, instead of surfacing later as a bad submit time or an
	// unencodable trace.
	out := filepath.Join(t.TempDir(), "nan.json")
	err := run([]string{"-jobs", "5", "-duration", "10m", "-sigma", "2", "-mu", "NaN", "-o", out})
	if err == nil || !strings.Contains(err.Error(), "mu must be finite") {
		t.Errorf("-mu NaN: err = %v, want a finite-mu error", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Error("-mu NaN still wrote an output file")
	}
}

// TestInspectJSONLEvents covers the event-stream inspect path: a .jsonl
// argument summarizes per-kind counts instead of decoding a workload
// trace.
func TestInspectJSONLEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	events := []obs.Event{
		{At: 0, Kind: obs.KindJobSubmit, Node: -1, Job: 1, Aux: -1},
		{At: time.Second, Kind: obs.KindJobAdmit, Node: 0, Job: 1, Aux: -1, Val: 40},
		{At: 2 * time.Second, Kind: obs.KindJobDone, Node: 0, Job: 1, Aux: -1},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-inspect", path}); err != nil {
		t.Fatal(err)
	}

	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-inspect", empty}); err != nil {
		t.Fatal(err)
	}
}

// TestInspectJSONLMalformed pins the CI contract shared with vrobs: a
// malformed line fails with its number and the file path.
func TestInspectJSONLMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	content := "{\"t\":0,\"k\":\"job-submit\",\"n\":-1,\"j\":0,\"a\":-1,\"v\":0,\"f\":0}\nbroken\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-inspect", path})
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want line 2 and path mentioned", err)
	}
}
