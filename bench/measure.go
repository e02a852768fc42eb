package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// passRecord is one pass as a child reports it. CPUSeconds is the CPU time
// the child process spent on the pass, every thread included; Seconds is
// the wall time, which also counts the time the host ran something else.
// Calib is the mean CPU time of the calibration rounds run just before and
// just after the pass, in a child that calibrates.
type passRecord struct {
	Index      int     `json:"index"` // pool entry
	CPUSeconds float64 `json:"cpu_seconds"`
	Seconds    float64 `json:"seconds"`
	Calib      float64 `json:"calib_seconds,omitempty"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Jobs       int     `json:"jobs"`
	Digest     string  `json:"digest"`
	Counts     counts  `json:"counts"`
	Model      *model  `json:"model,omitempty"`
	Err        string  `json:"err,omitempty"`
}

// session is one child's set-up: the input pool synthesized from the seed
// and the untimed warm pass over entry 0.
type session struct {
	w      *benchWorkload
	inputs []input
	rec    *recorder // records set-up and traced passes; nil when untraced
	warm   passRecord
	first  map[int]string // first digest seen per pool entry
	cal    *calibrator    // runs around every measured pass; nil for none
}

// newSession synthesizes n pool entries and runs the warm pass. The warm
// pass is untraced, so spans and the profile cover measured passes only.
func newSession(w *benchWorkload, seed int64, n int, rec *recorder) (*session, error) {
	s := &session{w: w, rec: rec, first: make(map[int]string)}
	for k := 0; k < n; k++ {
		in, err := w.input(inputSeed(seed, k), rec)
		if err != nil {
			return nil, fmt.Errorf("%s input %d: %w", w.name, k, err)
		}
		s.inputs = append(s.inputs, in)
	}
	s.warm = s.run(0, nil)
	if s.warm.Err != "" {
		return nil, fmt.Errorf("%s warm pass: %s", w.name, s.warm.Err)
	}
	s.first[0] = s.warm.Digest
	return s, nil
}

// run executes one pass over pool entry k. The timed interval is the pass
// plus a forced collection, so each pass pays for its own garbage and
// inherits no other pass's GC debt.
func (s *session) run(k int, rec *recorder) passRecord {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	rec.begin(spanPass)
	start, cpuStart := time.Now(), cpuSeconds()
	out, err := s.w.pass(s.inputs[k], rec)
	runtime.GC()
	elapsed, cpu := time.Since(start), cpuSeconds()-cpuStart
	rec.end()
	runtime.ReadMemStats(&ms)
	r := passRecord{
		Index:      k,
		CPUSeconds: cpu,
		Seconds:    elapsed.Seconds(),
		AllocBytes: ms.TotalAlloc - before,
		Jobs:       out.jobs,
		Counts:     out.counts,
		Model:      out.model,
	}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Digest, err = digest(out.results)
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

// cpuSeconds is the CPU time this process has used, summed over its
// threads. The kernel leaves out the time the host hypervisor gave the
// virtual CPU to another guest, which wall time counts.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// digest is the SHA-256 of the JSON of every result and row a pass made.
// A change to the simulator's speed alone must leave it identical.
func digest(results []any) (string, error) {
	b, err := json.Marshal(results)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// loop drives a closed loop with one client: each step starts when the
// previous returns. With count > 0 it runs exactly count steps; otherwise
// it stops starting steps once seconds have elapsed, after at least one.
func loop(seconds float64, count int, step func(i int)) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; count <= 0 || i < count; i++ {
		if count <= 0 && i > 0 && !time.Now().Before(deadline) {
			return
		}
		step(i)
	}
}

// calibrate times one calibration round, or returns 0 when the session
// has no calibrator.
func (s *session) calibrate() float64 {
	if s.cal == nil {
		return 0
	}
	return s.cal.measure()
}

// measure runs untraced passes, cycling through the pool from entry
// first, with a calibration round before the first pass and after every
// pass. The host's speed changes within a pass's time, so each pass is
// matched with the two rounds around it rather than with the run's median.
func (s *session) measure(first int, seconds float64, count int) []passRecord {
	var passes []passRecord
	before := s.calibrate()
	loop(seconds, count, func(i int) {
		r := s.checked(s.run((first+i)%len(s.inputs), nil))
		after := s.calibrate()
		r.Calib = (before + after) / 2
		before = after
		passes = append(passes, r)
	})
	return passes
}

// measurePaired runs every pool entry twice back to back, untraced and
// traced, alternating which goes first. Both passes of a pair see the same
// host conditions, so their ratio isolates the cost of the spans.
func (s *session) measurePaired(seconds float64, count int) (untraced, traced []passRecord) {
	loop(seconds, count, func(i int) {
		k := i % len(s.inputs)
		s.rec.pass = int32(i)
		if i%2 == 0 {
			untraced = append(untraced, s.checked(s.run(k, nil)))
		}
		traced = append(traced, s.checked(s.run(k, s.rec)))
		if i%2 == 1 {
			untraced = append(untraced, s.checked(s.run(k, nil)))
		}
	})
	return untraced, traced
}

// checked fails a pass whose digest differs from the first pass over the
// same pool entry.
func (s *session) checked(r passRecord) passRecord {
	if r.Err != "" {
		return r
	}
	if d, ok := s.first[r.Index]; !ok {
		s.first[r.Index] = r.Digest
	} else if d != r.Digest {
		r.Err = fmt.Sprintf("digest %.12s differs from the first pass over entry %d (%.12s)", r.Digest, r.Index, d)
	}
	return r
}
