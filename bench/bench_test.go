package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/policy"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

// goldenSeeds are the benchmark's default seed and its held-out seed.
var goldenSeeds = []int64{42, 7}

// goldenEntries is how many pool entries per seed the golden file pins.
const goldenEntries = 2

// firstPasses sets up an untraced session over the first n pool entries
// and runs one pass over each.
func firstPasses(t *testing.T, w *benchWorkload, seed int64, n int) []passRecord {
	t.Helper()
	s, err := newSession(w, seed, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	passes := s.measure(0, 0, n)
	for _, p := range passes {
		if p.Err != "" {
			t.Fatalf("%s seed %d entry %d: %s", w.name, seed, p.Index, p.Err)
		}
	}
	return passes
}

// TestGolden pins the digest of the first pool entries of every workload
// for both benchmark seeds. A change that only makes the simulator faster
// must leave every digest identical; -update rewrites the file.
func TestGolden(t *testing.T) {
	got := goldenFile{}
	for _, w := range workloads {
		got[w.name] = map[string][]string{}
		for _, seed := range goldenSeeds {
			var digests []string
			for _, p := range firstPasses(t, w, seed, goldenEntries) {
				digests = append(digests, p.Digest)
			}
			got[w.name][fmt.Sprint(seed)] = digests
		}
	}
	if *update {
		if err := writeJSONFile(goldenPath, got); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("digests moved (rerun with -update only if the simulated results were meant to change)\ngot  %v\nwant %v", got, want)
	}
}

// TestSmoke runs every workload untraced and traced at seed 42 and checks
// what a benchmark run checks: digests against the goldens, traced against
// untraced digests and counts, nested spans and a fully attributed profile.
func TestSmoke(t *testing.T) {
	golden, err := loadGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	n := 2
	if testing.Short() {
		n = 1
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			untraced := firstPasses(t, w, 42, n)
			want := golden.lookup(w.name, 42)
			for _, p := range untraced {
				if p.Index < len(want) && p.Digest != want[p.Index] {
					t.Errorf("entry %d digest %.12s, golden %.12s", p.Index, p.Digest, want[p.Index])
				}
			}

			rec := newRecorder(keepSpans)
			s, err := newSession(w, 42, 1, rec)
			if err != nil {
				t.Fatal(err)
			}
			prof := filepath.Join(t.TempDir(), "cpu.pprof")
			f, err := os.Create(prof)
			if err != nil {
				t.Fatal(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				t.Fatal(err)
			}
			paired, traced := s.measurePaired(0, 1)
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			for _, p := range append(paired, traced...) {
				if p.Err != "" {
					t.Fatal(p.Err)
				}
				if p.Digest != untraced[0].Digest {
					t.Errorf("paired digest %.12s, untraced %.12s", p.Digest, untraced[0].Digest)
				}
				if p.Counts != untraced[0].Counts {
					t.Errorf("paired counts %+v, untraced %+v", p.Counts, untraced[0].Counts)
				}
			}
			checkSpans(t, rec)
			if rec.calls[spanPass] != 1 {
				t.Errorf("%d pass spans, want 1", rec.calls[spanPass])
			}
			if _, err := attributeProfile(prof); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkSpans requires every kept span to close, to lie inside its parent,
// and to have non-negative self time.
func checkSpans(t *testing.T, rec *recorder) {
	t.Helper()
	if len(rec.open) != 0 {
		t.Fatalf("%d spans still open", len(rec.open))
	}
	childNs := make([]int64, len(rec.spans))
	for i, s := range rec.spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, spanNames[s.Name])
		}
		if s.Parent < 0 {
			continue
		}
		p := rec.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s) lies outside its parent %s", i, spanNames[s.Name], spanNames[p.Name])
		}
		childNs[s.Parent] += s.End - s.Start
	}
	for i, s := range rec.spans {
		if s.End-s.Start < childNs[i] {
			t.Fatalf("span %d (%s) has negative self time", i, spanNames[s.Name])
		}
	}
	for n := spanName(0); n < numSpans; n++ {
		if rec.selfNs[n] < 0 {
			t.Errorf("%s: negative aggregate self time", spanNames[n])
		}
	}
}

func TestParseTraces(t *testing.T) {
	blocks := `-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             vrcluster/internal/node.(*Node).Tick
             vrcluster/internal/cluster.(*Cluster).quantumTick
             main.main
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   vrcluster/internal/loadinfo.(*Board).bestDestination (inline)
             vrcluster/internal/policy.(*GLoadSharing).Place
-----------+-------------------------------------------------------
      10ms   vrcluster/internal/network.Model.TransferTime
             vrcluster/internal/cluster.(*Cluster).Migrate
-----------+-------------------------------------------------------
`
	p, err := parseTraces("File: bench\nType: cpu\nDuration: 1s, Total samples = 50ms ( 5.00%)\n" + blocks)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"node": 20, gcBucket: 10, "loadinfo": 10, otherBucket: 10}
	if !reflect.DeepEqual(p.ms, want) {
		t.Errorf("buckets %v, want %v", p.ms, want)
	}
	if p.samples != 5 {
		t.Errorf("%d samples, want 5", p.samples)
	}
	if _, err := parseTraces("Duration: 1s, Total samples = 30ms ( 3.00%)\n" + blocks); err == nil {
		t.Error("a report whose blocks exceed its sampled total parsed without error")
	}
}

// TestCalibration checks that a calibration round allocates nothing, so it
// never starts a collection that would scan the simulator's heap, and that
// a calibrating session gives every pass the rounds around it.
func TestCalibration(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() { cal.measure() }); n != 0 {
		t.Errorf("a calibration round allocates %v times", n)
	}
	w, err := findWorkload("pressured")
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSession(w, 42, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.cal = cal
	for _, p := range s.measure(0, 0, 2) {
		if p.Err != "" || p.Calib <= 0 || p.CPUSeconds <= 0 {
			t.Errorf("pass %+v: want no error and positive CPU and calibration times", p)
		}
	}
}

// TestWrapForwardsState checks that a traced scheduler keeps the fork state
// interface exactly when the wrapped scheduler has it.
func TestWrapForwardsState(t *testing.T) {
	vr, err := core.NewVReconfiguration(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(0)
	for _, c := range []struct {
		sched cluster.Scheduler
		want  bool
	}{
		{vr, true},
		{policy.NewGLoadSharing(), true},
		{policy.NoSharing{}, false},
	} {
		if _, got := rec.wrap(c.sched).(schedulerState); got != c.want {
			t.Errorf("%s: wrapped scheduler has fork state = %v, want %v", c.sched.Name(), got, c.want)
		}
	}
}

// TestBenchmarkSpec checks that BENCHMARK.json lists exactly the workloads
// and metrics this program measures.
func TestBenchmarkSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}

	rep := &childReport{Spans: &spanSummary{}}
	e2e, layers := &runResult{}, &runResult{}
	endToEndMetrics(e2e, []*childReport{rep}, []float64{0})
	layerMetrics(layers, rep, rep, profileShares{})
	for _, c := range []struct {
		listed   []struct{ Name, Unit string }
		measured []metric
	}{{spec.EndToEnd, e2e.Metrics}, {spec.PerLayer, layers.Metrics}} {
		var got, want []string
		for _, m := range c.listed {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, m := range c.measured {
			want = append(want, m.Name+" "+m.Unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json lists\n%v\nprogram reports\n%v", got, want)
		}
	}
}
