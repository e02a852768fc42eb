package trace

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/workload"
)

// FuzzTraceDecode feeds arbitrary bytes to Decode. It must never panic;
// a trace it accepts must come back unchanged from Encode and Decode, and
// must materialize into jobs or an error without panicking.
func FuzzTraceDecode(f *testing.F) {
	small, err := Generate(Config{
		Name: "seed", Group: workload.Group2, Sigma: 2, Mu: 2, Jobs: 4,
		Duration: time.Minute, Nodes: 3, Seed: 1, Jitter: workload.DefaultJitter,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := small.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		``,
		`{}`,
		`null`,
		`{"items":null}`,
		`{"items":[]}`,
		`{"name":"x","group":1,"durationMillis":1000,"nodes":2,"items":[{"submitMillis":1,"program":"gcc","cpuMillis":5,"workingSetMB":1,"home":0}]}`,
		`{"durationMillis":9223372036854775807,"nodes":1,"items":[{"submitMillis":9223372036854775807,"program":"gcc","cpuMillis":9223372036854775807,"workingSetMB":1e308,"home":0}]}`,
		`{"durationMillis":5,"nodes":1,"items":[{"submitMillis":1,"program":"mcf","cpuMillis":1,"workingSetMB":-4,"home":0}]}`,
		`{"name":"\ud800","sigma":-0,"mu":1e-320,"items":[]} trailing`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Encode(&out); err != nil {
			t.Fatalf("Encode of a decoded trace: %v", err)
		}
		back, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("Decode of an encoded trace: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\n%+v\n%+v", tr, back)
		}
		jobs, err := tr.Jobs()
		if err == nil && len(jobs) != len(tr.Items) {
			t.Fatalf("Jobs() = %d jobs for %d items", len(jobs), len(tr.Items))
		}
	})
}
