package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vrcluster/internal/workload"
)

func TestGenerateValidation(t *testing.T) {
	base := Config{
		Group: workload.Group1, Sigma: 1, Mu: 1, Jobs: 10,
		Duration: time.Hour, Nodes: 4, Seed: 1,
	}
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string // substring the error must contain, if any
	}{
		{"zero jobs", func(c *Config) { c.Jobs = 0 }, ""},
		{"zero duration", func(c *Config) { c.Duration = 0 }, ""},
		{"zero nodes", func(c *Config) { c.Nodes = 0 }, ""},
		{"zero sigma", func(c *Config) { c.Sigma = 0 }, "sigma"},
		{"NaN sigma", func(c *Config) { c.Sigma = math.NaN() }, "sigma must be finite"},
		{"+Inf sigma", func(c *Config) { c.Sigma = math.Inf(1) }, "sigma must be finite"},
		{"-Inf sigma", func(c *Config) { c.Sigma = math.Inf(-1) }, "sigma must be finite"},
		{"NaN mu", func(c *Config) { c.Mu = math.NaN() }, "mu must be finite"},
		{"+Inf mu", func(c *Config) { c.Mu = math.Inf(1) }, "mu must be finite"},
		{"-Inf mu", func(c *Config) { c.Mu = math.Inf(-1) }, "mu must be finite"},
		{"bad group", func(c *Config) { c.Group = 42 }, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			_, err := Generate(cfg)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	if _, err := Generate(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestStandardTraceShape(t *testing.T) {
	for n, lvl := range Levels {
		tr, err := Standard(workload.Group1, n+1, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Items) != lvl.Jobs {
			t.Errorf("trace %d has %d jobs, want %d", n+1, len(tr.Items), lvl.Jobs)
		}
		if tr.Duration() != lvl.Duration {
			t.Errorf("trace %d duration %v, want %v", n+1, tr.Duration(), lvl.Duration)
		}
		if tr.Sigma != lvl.Sigma || tr.Mu != lvl.Sigma {
			t.Errorf("trace %d sigma/mu = %v/%v, want %v", n+1, tr.Sigma, tr.Mu, lvl.Sigma)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("trace %d invalid: %v", n+1, err)
		}
	}
}

func TestStandardNames(t *testing.T) {
	tr, err := Standard(workload.Group1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "SPEC-Trace-3" {
		t.Errorf("name = %q", tr.Name)
	}
	tr, err = Standard(workload.Group2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "App-Trace-5" {
		t.Errorf("name = %q", tr.Name)
	}
	if _, err := Standard(workload.Group1, 0, 1); err == nil {
		t.Error("level 0 should error")
	}
	if _, err := Standard(workload.Group1, 6, 1); err == nil {
		t.Error("level 6 should error")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Standard(workload.Group1, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Standard(workload.Group1, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != len(b.Items) {
		t.Fatal("lengths differ")
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, a.Items[i], b.Items[i])
		}
	}
	c, err := Standard(workload.Group1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Items {
		if a.Items[i] != c.Items[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestHigherLevelsArriveFaster(t *testing.T) {
	// Trace 5 (sigma=mu=1.5) should have a much earlier median arrival
	// than trace 1 (sigma=mu=4.0): lognormal median is exp(mu).
	t1, err := Standard(workload.Group1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := Standard(workload.Group1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	med := func(tr *Trace) int64 { return tr.Items[len(tr.Items)/2].SubmitMillis }
	if med(t5) >= med(t1) {
		t.Errorf("median arrival trace5=%dms !< trace1=%dms", med(t5), med(t1))
	}
}

func TestJobsMaterialization(t *testing.T) {
	tr, err := Standard(workload.Group2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := tr.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(tr.Items) {
		t.Fatalf("%d jobs from %d items", len(jobs), len(tr.Items))
	}
	for i, j := range jobs {
		it := tr.Items[i]
		if j.CPUDemand.Milliseconds() != it.CPUMillis {
			t.Errorf("job %d cpu %v != item %dms", i, j.CPUDemand, it.CPUMillis)
		}
		diff := j.PeakMemoryMB() - it.WorkingSetMB
		if diff > 1e-6 || diff < -1e-6 {
			t.Errorf("job %d peak %v != item %v", i, j.PeakMemoryMB(), it.WorkingSetMB)
		}
		if i > 0 && j.SubmitAt < jobs[i-1].SubmitAt {
			t.Errorf("job %d out of order", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr, err := Standard(workload.Group1, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || len(back.Items) != len(tr.Items) {
		t.Fatal("round trip lost data")
	}
	for i := range tr.Items {
		if back.Items[i] != tr.Items[i] {
			t.Fatalf("item %d changed in round trip", i)
		}
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	tests := []struct {
		name string
		json string
	}{
		{"not json", "{"},
		{"unknown program", `{"name":"x","group":1,"durationMillis":1000,"nodes":2,"items":[{"submitMillis":1,"program":"bogus","cpuMillis":5,"workingSetMB":1,"home":0}]}`},
		{"out of order", `{"name":"x","group":1,"durationMillis":1000,"nodes":2,"items":[{"submitMillis":10,"program":"gcc","cpuMillis":5,"workingSetMB":1,"home":0},{"submitMillis":5,"program":"gcc","cpuMillis":5,"workingSetMB":1,"home":0}]}`},
		{"home out of range", `{"name":"x","group":1,"durationMillis":1000,"nodes":2,"items":[{"submitMillis":1,"program":"gcc","cpuMillis":5,"workingSetMB":1,"home":7}]}`},
		{"after window", `{"name":"x","group":1,"durationMillis":1000,"nodes":2,"items":[{"submitMillis":2000,"program":"gcc","cpuMillis":5,"workingSetMB":1,"home":0}]}`},
		{"zero cpu", `{"name":"x","group":1,"durationMillis":1000,"nodes":2,"items":[{"submitMillis":1,"program":"gcc","cpuMillis":0,"workingSetMB":1,"home":0}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(bytes.NewReader([]byte(tt.json))); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestDecodeRejectsWorkingSet feeds Decode working sets past the bound, NaN
// (which JSON cannot carry, so the decoder itself refuses it) and below
// zero, and requires Validate to name the offending item for a trace built
// in memory, where NaN and ±Inf can appear.
func TestDecodeRejectsWorkingSet(t *testing.T) {
	const item = `{"submitMillis":1,"program":"apsi","cpuMillis":5,"workingSetMB":1,"home":0}`
	for _, ws := range []string{"1.7976931348623157e308", "NaN", "-1"} {
		bad := strings.Replace(item, `"workingSetMB":1`, `"workingSetMB":`+ws, 1)
		in := `{"name":"x","group":1,"durationMillis":1000,"nodes":2,"items":[` + item + "," + bad + `]}`
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("working set %s: decoded without error", ws)
		}
	}
	for _, ws := range []float64{math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1), -1, maxWorkingSetMB + 1} {
		tr := &Trace{Name: "x", Group: workload.Group1, DurationMillis: 1000, Nodes: 2, Items: []Item{
			{SubmitMillis: 1, Program: "apsi", CPUMillis: 5, WorkingSetMB: 1},
			{SubmitMillis: 1, Program: "apsi", CPUMillis: 5, WorkingSetMB: ws},
		}}
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), "item 1 ") {
			t.Errorf("working set %v: Validate returned %v, want an error naming item 1", ws, err)
		}
	}
	for _, ws := range []float64{0, maxWorkingSetMB} {
		tr := &Trace{Name: "x", Group: workload.Group1, DurationMillis: 1000, Nodes: 2, Items: []Item{
			{SubmitMillis: 1, Program: "apsi", CPUMillis: 5, WorkingSetMB: ws},
		}}
		if err := tr.Validate(); err != nil {
			t.Errorf("working set %v at the bound: %v", ws, err)
		}
	}
	for _, g := range []workload.Group{workload.Group1, workload.Group2} {
		for level := 1; level <= len(Levels); level++ {
			tr, err := Standard(g, level, 42)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Errorf("standard trace %s invalid: %v", tr.Name, err)
			}
		}
	}
}

// Property: every generated trace is internally valid and its submissions
// fall within the window for arbitrary seeds.
func TestGeneratePropertyValid(t *testing.T) {
	f := func(seed int64) bool {
		tr, err := Generate(Config{
			Name: "p", Group: workload.Group2, Sigma: 2, Mu: 2,
			Jobs: 50, Duration: 600 * time.Second, Nodes: 8, Seed: seed,
			Jitter: workload.DefaultJitter,
		})
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	orig, err := Standard(workload.Group2, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := orig.Clone()
	if !reflect.DeepEqual(orig, c) {
		t.Fatal("clone differs from original")
	}
	if len(c.Items) > 0 && &c.Items[0] == &orig.Items[0] {
		t.Fatal("clone aliases the original's items")
	}
	// Mutating the clone must not touch the original.
	c.Items[0].WorkingSetMB += 100
	c.Name = "mutant"
	if orig.Items[0].WorkingSetMB == c.Items[0].WorkingSetMB {
		t.Error("clone mutation leaked into original items")
	}
	if orig.Name == c.Name {
		t.Error("clone mutation leaked into original header")
	}
	var nilTrace *Trace
	if nilTrace.Clone() != nil {
		t.Error("nil clone should be nil")
	}
}
