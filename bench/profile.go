package main

import (
	"bufio"
	"fmt"
	"math"
	"os/exec"
	"strings"
	"time"
)

// layerPackages are the simulator packages a CPU sample can be charged to.
var layerPackages = []string{
	"sim", "node", "memory", "job", "loadinfo", "policy", "core", "cluster",
	"netlink", "faults", "audit", "obs", "metrics", "experiments", "trace",
	"workload", "stats",
}

const (
	modulePrefix = "vrcluster/internal/"
	// gcBucket takes samples with no simulator frame: the garbage
	// collector's workers and the forced collection ending each pass.
	gcBucket = "runtime.gc"
	// otherBucket takes samples charged to a simulator package outside
	// layerPackages, so the buckets always cover every sample.
	otherBucket = "other"
	// samplePeriod is runtime/pprof's fixed CPU sampling interval.
	samplePeriod = 10 * time.Millisecond
)

// profileShares is CPU time by bucket as attributed from one profile.
type profileShares struct {
	ms      map[string]float64
	samples int
}

// totalPrefix introduces the sampled total in the report's header.
const totalPrefix = "Total samples = "

func (p profileShares) totalMS() float64 {
	t := 0.0
	for _, v := range p.ms {
		t += v
	}
	return t
}

// attributeProfile runs `go tool pprof -traces` on a CPU profile and
// charges each sample to the innermost simulator package on its stack, so
// runtime helpers count against the package that called them.
func attributeProfile(path string) (profileShares, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return profileShares{}, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return parseTraces(string(out))
}

// parseTraces reads pprof's -traces report: a header, then one block per
// stack separated by dashed lines, whose first line carries the sampled
// time before the leaf frame and whose next lines are the callers. The
// buckets must add up to the header's sampled total, so every sample is
// charged exactly once. A profile without samples yields empty buckets.
func parseTraces(report string) (profileShares, error) {
	p := profileShares{ms: make(map[string]float64)}
	total := time.Duration(-1)
	var value time.Duration
	bucket := ""
	inBlock := false
	flush := func() {
		if inBlock {
			if bucket == "" {
				bucket = gcBucket
			}
			p.ms[bucket] += float64(value) / float64(time.Millisecond)
			p.samples += int(value / samplePeriod)
		}
		inBlock, bucket, value = false, "", 0
	}
	sc := bufio.NewScanner(strings.NewReader(report))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			if _, rest, ok := strings.Cut(line, totalPrefix); ok {
				d, err := time.ParseDuration(strings.Fields(rest + " ")[0])
				if err != nil {
					return p, fmt.Errorf("pprof traces: header %q: %w", line, err)
				}
				total = d
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if value == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return p, fmt.Errorf("pprof traces: unexpected block start %q", line)
			}
			value, frame = d, fields[1]
		}
		if bucket == "" && strings.HasPrefix(frame, modulePrefix) {
			bucket = packageBucket(frame[len(modulePrefix):])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return p, err
	}
	if total < 0 {
		return p, fmt.Errorf("pprof traces: no %q header", strings.TrimSpace(totalPrefix))
	}
	want := float64(total) / float64(time.Millisecond)
	if got := p.totalMS(); math.Abs(got-want) > 0.01*want {
		return p, fmt.Errorf("pprof traces: buckets hold %.0f ms of %.0f ms sampled", got, want)
	}
	return p, nil
}

// packageBucket maps a frame below vrcluster/internal/ to its bucket.
func packageBucket(rest string) string {
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range layerPackages {
		if l == pkg {
			return pkg
		}
	}
	return otherBucket
}
