package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vrcluster/internal/faults"
	"vrcluster/internal/obs"
	"vrcluster/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/grid_digests.json")

const gridDigestsPath = "testdata/grid_digests.json"

// gridCase is one public grid. run executes it at a given RunConfig and
// returns its rows with every wall-clock field zeroed, so two runs of the
// same grid compare equal exactly when their simulated outputs do.
type gridCase struct {
	name string
	run  func(cfg RunConfig) (any, error)
	// metrics reports whether the grid accepts RunConfig.Metrics
	// (RunScale takes its own ScaleConfig, which has no registry).
	metrics bool
	// check adds grid-specific assertions on the reference output.
	check func(t *testing.T, out any)
}

var faultPlan = faults.Plan{Crash: faults.Requeue, DropRate: 0.1, AbortRate: 0.2}

// gridCases lists every public grid of the package at fastConfig().
var gridCases = []gridCase{
	{name: "Run", metrics: true, run: func(cfg RunConfig) (any, error) {
		cfg.Levels = []int{1, 2} // two levels, so the rows' order is pinned too
		gr, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		gr.Wall, gr.Work = 0, 0
		for i := range gr.Levels {
			gr.Levels[i].Elapsed = 0
		}
		// The interval rows read every run's sample series, which the
		// exported Result fields alone do not carry.
		iv, err := gr.IntervalInsensitivity()
		return []any{gr, iv}, err
	}},
	{name: "SeedSensitivity", metrics: true, run: func(cfg RunConfig) (any, error) {
		return SeedSensitivity(cfg, 1, []int64{7, 21, 42, 99})
	}},
	{name: "WhatIfGrid", metrics: true, run: func(cfg RunConfig) (any, error) {
		return WhatIfGrid(cfg, 1, StandardWhatIfs(cfg))
	}},
	{name: "FaultSweep", metrics: true, run: func(cfg RunConfig) (any, error) {
		return FaultSweep(cfg, 1, faultPlan, []float64{50, 10})
	}},
	{name: "ChaosSweep", metrics: true, run: func(cfg RunConfig) (any, error) {
		return ChaosSweep(cfg, []ChaosScenario{DefaultChaosScenarios[2]})
	}, check: func(t *testing.T, out any) {
		for _, r := range out.([]ChaosRow) {
			if r.Audits == 0 {
				t.Errorf("%s level %d %s: auditor never ran", r.Scenario, r.Level, r.Policy)
			}
			if r.Violations != 0 {
				t.Errorf("%s level %d %s: %d auditor violations", r.Scenario, r.Level, r.Policy, r.Violations)
			}
		}
	}},
	{name: "AblationRules", metrics: true, run: func(cfg RunConfig) (any, error) {
		return AblationRules(cfg, 1)
	}},
	{name: "AblationReservationCap", metrics: true, run: func(cfg RunConfig) (any, error) {
		return AblationReservationCap(cfg, 1, []int{1, 8})
	}},
	{name: "AblationExchangePeriod", metrics: true, run: func(cfg RunConfig) (any, error) {
		return AblationExchangePeriod(cfg, 1, []time.Duration{time.Second, 2 * time.Second})
	}},
	{name: "AblationBigJobs", metrics: true, run: func(cfg RunConfig) (any, error) {
		cfg.Group = workload.Group1 // the workload draws on group-1 programs
		return AblationBigJobs(cfg, 1)
	}},
	{name: "AblationSharedNetwork", metrics: true, run: func(cfg RunConfig) (any, error) {
		return AblationSharedNetwork(cfg, 1)
	}},
	{name: "AblationNetworkRAM", metrics: true, run: func(cfg RunConfig) (any, error) {
		cfg.Group = workload.Group1 // the workload draws on group-1 programs
		return AblationNetworkRAM(cfg, 1)
	}},
	{name: "AblationHeterogeneous", metrics: true, run: func(cfg RunConfig) (any, error) {
		cfg.Group = workload.Group1 // the workload draws on group-1 programs
		return AblationHeterogeneous(cfg, 1)
	}},
	{name: "RunScale", run: func(cfg RunConfig) (any, error) {
		s, err := RunScale(ScaleConfig{MaxNodes: 100, Seed: cfg.Seed, Quantum: cfg.Quantum, Parallel: cfg.Parallel})
		if err != nil {
			return nil, err
		}
		s.Wall, s.Work = 0, 0
		for i := range s.Points {
			s.Points[i].Wall = 0
		}
		return s, nil
	}, check: func(t *testing.T, out any) {
		var buf strings.Builder
		if err := RenderScale(&buf, out.(*ScaleSweep)); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(buf.String(), "\n")
		if len(lines) < 4 {
			t.Fatalf("scale table %q: want a title, a header and two rows", buf.String())
		}
		if !strings.HasSuffix(lines[1], "scan/select") {
			t.Errorf("scale table header %q, want scan/select as the last column", lines[1])
		}
		if !strings.Contains(lines[2], " 32 ") || !strings.Contains(lines[3], " 100 ") {
			t.Errorf("scale table rows %q, %q: want the 32- and 100-node points", lines[2], lines[3])
		}
	}},
}

// gridConfig is fastConfig at one execution strategy.
func gridConfig(parallel int, fork bool) RunConfig {
	cfg := fastConfig()
	cfg.Parallel = parallel
	cfg.Fork = fork
	return cfg
}

var (
	referenceOnce sync.Once
	referenceOut  map[string]any
	referenceErr  error
)

// reference runs every grid once at width 1 with the fresh strategy: the
// outputs the goldens pin and every other strategy must reproduce.
func reference(t *testing.T) map[string]any {
	t.Helper()
	referenceOnce.Do(func() {
		referenceOut = map[string]any{}
		for _, g := range gridCases {
			out, err := g.run(gridConfig(1, false))
			if err != nil {
				referenceErr = fmt.Errorf("%s: %w", g.name, err)
				return
			}
			referenceOut[g.name] = out
		}
	})
	if referenceErr != nil {
		t.Fatal(referenceErr)
	}
	return referenceOut
}

// TestGridDigests pins a SHA-256 of the JSON rows of every public grid. A
// change to how the grids execute must leave every digest identical;
// -update rewrites the file.
func TestGridDigests(t *testing.T) {
	got := map[string]string{}
	for name, out := range reference(t) {
		raw, err := json.Marshal(out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(raw)
		got[name] = hex.EncodeToString(sum[:])
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gridDigestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(gridDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", gridDigestsPath, err)
	}
	// Rerun with -update only if the simulated outputs were meant to change.
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %.12s, golden %.12s", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: not in %s", k, gridDigestsPath)
		}
	}
}

// TestGridDeterminism is the execution-strategy contract of every grid:
// at fan-out widths 1 and 3, with the fork strategy off and on, the
// outputs are DeepEqual — sample series and reservation records included
// — to the width-1 fresh reference.
func TestGridDeterminism(t *testing.T) {
	ref := reference(t)
	for _, g := range gridCases {
		t.Run(g.name, func(t *testing.T) {
			if g.check != nil {
				g.check(t, ref[g.name])
			}
			for _, parallel := range []int{1, 3} {
				for _, fork := range []bool{false, true} {
					if parallel == 1 && !fork {
						continue // the reference itself
					}
					out, err := g.run(gridConfig(parallel, fork))
					if err != nil {
						t.Fatalf("parallel=%d fork=%v: %v", parallel, fork, err)
					}
					if !reflect.DeepEqual(out, ref[g.name]) {
						t.Errorf("parallel=%d fork=%v: outputs differ from the width-1 fresh run", parallel, fork)
					}
				}
			}
		})
	}
}

// TestGridMetrics checks that RunConfig.Metrics reaches the runs of every
// grid that takes it, under either strategy, and changes none of the
// outputs: every registered series counts completed jobs.
func TestGridMetrics(t *testing.T) {
	ref := reference(t)
	for _, g := range gridCases {
		if !g.metrics {
			continue
		}
		t.Run(g.name, func(t *testing.T) {
			for _, fork := range []bool{false, true} {
				cfg := gridConfig(3, fork)
				cfg.Metrics = obs.NewRegistry()
				out, err := g.run(cfg)
				if err != nil {
					t.Fatalf("fork=%v: %v", fork, err)
				}
				want := ref[g.name]
				if rows, ok := want.([]ChaosRow); ok {
					want = withTraceAudit(rows)
				}
				if !reflect.DeepEqual(out, want) {
					t.Errorf("fork=%v: attaching metrics changed the outputs", fork)
				}
				if cfg.Metrics.Len() == 0 {
					t.Errorf("fork=%v: no series registered", fork)
				}
				cfg.Metrics.Each(func(s *obs.Series) {
					if s.KindCount(obs.KindJobDone) == 0 {
						t.Errorf("fork=%v: series %s/%s counted no completions", fork, s.Policy(), s.TraceName())
					}
				})
			}
		})
	}
}

// withTraceAudit is the chaos reference as a run carrying a tracer reports
// it: the auditor checks the event stream once more when every run ends.
func withTraceAudit(rows []ChaosRow) []ChaosRow {
	out := append([]ChaosRow(nil), rows...)
	for i := range out {
		out[i].Audits++
	}
	return out
}

// TestEmptyGridsFail: a grid with no cells is an error, not an empty table.
func TestEmptyGridsFail(t *testing.T) {
	if _, err := AblationReservationCap(fastConfig(), 1, nil); err == nil {
		t.Error("empty reservation-cap sweep should fail")
	}
	if _, err := AblationExchangePeriod(fastConfig(), 1, nil); err == nil {
		t.Error("empty exchange-period sweep should fail")
	}
}
