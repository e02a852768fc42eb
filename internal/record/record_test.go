package record

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vrcluster/internal/job"
)

func makeJob(t *testing.T, id int, cpu time.Duration, memMB float64) *job.Job {
	t.Helper()
	var phases []job.Phase
	if memMB > 0 {
		phases = []job.Phase{{EndFrac: 1, StartMB: memMB, EndMB: memMB}}
	}
	j, err := job.New(id, "m-m", cpu, phases, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestNewRecorderValidation(t *testing.T) {
	j := makeJob(t, 1, time.Second, 10)
	if _, err := NewRecorder("r", 0, 4, []*job.Job{j}, nil); err == nil {
		t.Error("zero interval should fail")
	}
	if _, err := NewRecorder("r", time.Millisecond, 0, []*job.Job{j}, nil); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := NewRecorder("r", time.Millisecond, 4, nil, nil); err == nil {
		t.Error("no jobs should fail")
	}
	dup := makeJob(t, 1, time.Second, 10)
	if _, err := NewRecorder("r", time.Millisecond, 4, []*job.Job{j, dup}, nil); err == nil {
		t.Error("duplicate job IDs should fail")
	}
}

func TestObserveCapturesDeltas(t *testing.T) {
	j := makeJob(t, 1, time.Second, 50)
	rec, err := NewRecorder("r", 10*time.Millisecond, 4, []*job.Job{j}, map[int]int{1: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Pending jobs produce no records.
	rec.Observe(10 * time.Millisecond)
	if len(rec.Log().Jobs[0].Activities) != 0 {
		t.Error("pending job recorded activity")
	}
	if err := j.Start(3, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Account(5*time.Millisecond, 2*time.Millisecond, 3*time.Millisecond, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec.Observe(30 * time.Millisecond)
	acts := rec.Log().Jobs[0].Activities
	if len(acts) != 1 {
		t.Fatalf("activities = %d", len(acts))
	}
	a := acts[0]
	if a.CPUMicros != 5000 || a.PageMicros != 2000 {
		t.Errorf("activity = %+v", a)
	}
	// Queue includes the 20 ms admission wait plus the 3 ms quantum wait.
	if a.QueueMicros != 23000 {
		t.Errorf("queue = %d us, want 23000", a.QueueMicros)
	}
	if a.Node != 3 || a.MemoryMB != 50 {
		t.Errorf("activity = %+v", a)
	}
	// A second observation with no further progress adds a zero record
	// for the still-running job.
	rec.Observe(40 * time.Millisecond)
	acts = rec.Log().Jobs[0].Activities
	if len(acts) != 2 {
		t.Fatalf("activities = %d", len(acts))
	}
	// Drive to completion; after the final delta is captured the job
	// produces no more records.
	if _, err := j.Account(995*time.Millisecond, 0, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	rec.Observe(time.Second)
	n := len(rec.Log().Jobs[0].Activities)
	rec.Observe(2 * time.Second)
	if len(rec.Log().Jobs[0].Activities) != n {
		t.Error("completed job kept producing records")
	}
	// Recorded totals equal the job's breakdown.
	if got, want := rec.Log().Jobs[0].Totals(), j.Breakdown(); got != want {
		t.Errorf("totals = %+v, want %+v", got, want)
	}
	if rec.Log().Jobs[0].Header.Home != 2 {
		t.Errorf("home = %d", rec.Log().Jobs[0].Header.Home)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	j := makeJob(t, 1, time.Second, 10)
	rec, err := NewRecorder("round", 10*time.Millisecond, 4, []*job.Job{j}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Account(time.Second, 0, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	rec.Observe(time.Second)
	var buf bytes.Buffer
	if err := rec.Log().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "round" || len(back.Jobs) != 1 || len(back.Jobs[0].Activities) != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	tests := []struct {
		name string
		json string
	}{
		{"not json", "{"},
		{"zero interval", `{"name":"x","intervalMillis":0,"nodes":2,"jobs":[]}`},
		{"zero nodes", `{"name":"x","intervalMillis":10,"nodes":0,"jobs":[]}`},
		{"dup job", `{"name":"x","intervalMillis":10,"nodes":2,"jobs":[{"header":{"jobId":1,"cpuMillis":5,"home":0}},{"header":{"jobId":1,"cpuMillis":5,"home":0}}]}`},
		{"bad home", `{"name":"x","intervalMillis":10,"nodes":2,"jobs":[{"header":{"jobId":1,"cpuMillis":5,"home":7}}]}`},
		{"zero lifetime", `{"name":"x","intervalMillis":10,"nodes":2,"jobs":[{"header":{"jobId":1,"cpuMillis":0,"home":0}}]}`},
		{"out of order", `{"name":"x","intervalMillis":10,"nodes":2,"jobs":[{"header":{"jobId":1,"cpuMillis":5,"home":0},"activities":[{"offsetMillis":20},{"offsetMillis":10}]}]}`},
		{"null job", `{"intervalMillis":10,"nodes":1,"jobs":[null]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(bytes.NewReader([]byte(tt.json))); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestDecodeNamesNullJob pins the error for a null entry in the job list:
// it names the entry's index instead of dereferencing it.
func TestDecodeNamesNullJob(t *testing.T) {
	in := `{"intervalMillis":10,"nodes":1,"jobs":[{"header":{"jobId":1,"cpuMillis":5}},null]}`
	_, err := Decode(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "job 1 is null") {
		t.Fatalf("Decode = %v, want an error naming job 1", err)
	}
}
