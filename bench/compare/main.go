// Command compare judges two sets of benchmark runs by the benchmark's
// rules. Each set is a list of result.json files written by bench; the i-th
// files of the two sets form pair i, so name them in the order they ran and
// alternate which side runs first. Run it from the bench directory:
//
//	go run ./compare -a 'out/runs/parent-*.json' -b 'out/runs/change-*.json'
//	go run ./compare -agree -a 'out/runs/first-*.json' -b 'out/runs/second-*.json'
//
// For every workload and end-to-end metric it prints each side's median and
// quartiles, the share of pairs the change wins, and a verdict:
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the parent's own quartile spread exceeds the bound, and not
//     every change run beats every parent run;
//   - gain: the change wins at least nine tenths of at least ten pairs and
//     the medians differ by more than the parent's quartile spread;
//   - no change otherwise.
//
// A change that fails more passes than the parent is a regression too. With
// -agree both sets are runs of one commit, and every median must lie
// within the bound of the other's. The exit code is 1 when any row is a
// regression or a disagreement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
}

// resultFile is the part of bench's result.json this tool reads.
type resultFile struct {
	Runs []struct {
		Workload  string `json:"workload"`
		Trace     int    `json:"trace"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		Metrics   []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"runs"`
}

// side holds one set of runs: metric values per workload in file order,
// and failed and attempted passes per workload.
type side struct {
	values    map[string]map[string][]float64
	failed    map[string]int
	attempted map[string]int
}

func main() {
	var (
		a     = flag.String("a", "", "glob of the parent's result files (or the first set with -agree)")
		b     = flag.String("b", "", "glob of the change's result files (or the second set with -agree)")
		path  = flag.String("spec", "../BENCHMARK.json", "the benchmark definition with each metric's bound")
		agree = flag.Bool("agree", false, "both sets are runs of one commit; check that they agree within the bounds")
	)
	flag.Parse()
	if *a == "" || *b == "" {
		fmt.Fprintln(os.Stderr, "compare: -a and -b are required")
		os.Exit(2)
	}
	bad, err := run(*path, *a, *b, *agree)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if bad {
		os.Exit(1)
	}
}

func run(specPath, globA, globB string, agree bool) (bad bool, err error) {
	var sp spec
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	sa, err := load(globA)
	if err != nil {
		return false, err
	}
	sb, err := load(globB)
	if err != nil {
		return false, err
	}
	fmt.Printf("%-9s %-14s %3s %-32s %-32s %7s %5s %6s  %s\n",
		"workload", "metric", "n", "A median [q1 q3]", "B median [q1 q3]", "B/A-1", "win", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := sa.values[w.Name][m.Name], sb.values[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-9s %-14s missing from one side\n", w.Name, m.Name)
				bad = true
				continue
			}
			row, rowBad := judge(m, va, vb, agree)
			bad = bad || rowBad
			fmt.Printf("%-9s %-14s %s\n", w.Name, m.Name, row)
		}
		fa := ratio(sa.failed[w.Name], sa.attempted[w.Name])
		fb := ratio(sb.failed[w.Name], sb.attempted[w.Name])
		verdict := "no change"
		if fb > fa {
			verdict, bad = "REGRESSION", true
		}
		fmt.Printf("%-9s %-14s A %d/%d B %d/%d failed passes: %s\n", w.Name, "fail_ratio",
			sa.failed[w.Name], sa.attempted[w.Name], sb.failed[w.Name], sb.attempted[w.Name], verdict)
	}
	return bad, nil
}

// judge formats one row and reports whether it is a regression or, with
// agree, a disagreement.
func judge(m specMetric, va, vb []float64, agree bool) (string, bool) {
	qa, qb := quartiles(va), quartiles(vb)
	lower := m.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	pairs := min(len(va), len(vb))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(vb[i], va[i]) {
			wins++
		}
	}
	change := qb[1]/qa[1] - 1
	worse := change
	if !lower {
		worse = -change
	}
	spreadA := (qa[2] - qa[0]) / qa[1]
	allBetter := true
	for _, x := range vb {
		for _, y := range va {
			allBetter = allBetter && better(x, y)
		}
	}

	var verdict string
	bad := false
	switch {
	case agree && math.Abs(change) <= m.Bound:
		verdict = fmt.Sprintf("agree (spreads A %.1f%% B %.1f%%)", 100*spreadA, 100*(qb[2]-qb[0])/qb[1])
	case agree:
		verdict, bad = "DISAGREE", true
	case spreadA > m.Bound && !allBetter:
		verdict = fmt.Sprintf("unresolved (parent spread %.1f%%)", 100*spreadA)
	case worse > m.Bound:
		verdict, bad = "REGRESSION", true
	case better(qb[1], qa[1]) && float64(wins) >= 0.9*float64(pairs) && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0]:
		verdict = "gain"
		if pairs < 10 {
			verdict = "gain? (fewer than 10 pairs: no claim)"
		}
	default:
		verdict = "no change"
	}
	return fmt.Sprintf("%3d %-32s %-32s %+6.1f%% %5.2f %5.0f%%  %s",
		pairs, fmtQ(qa), fmtQ(qb), 100*change, float64(wins)/float64(pairs), 100*m.Bound, verdict), bad
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", q[1], q[0], q[2])
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(data, n=4) computes them (its default
// exclusive method).
func quartiles(data []float64) [3]float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// load reads every result file matching a glob, in name order.
func load(glob string) (*side, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %s", glob)
	}
	sort.Strings(files)
	s := &side{
		values:    make(map[string]map[string][]float64),
		failed:    make(map[string]int),
		attempted: make(map[string]int),
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rf.Runs {
			s.failed[r.Workload] += r.Failed
			s.attempted[r.Workload] += r.Attempted
			if r.Trace != 0 {
				continue
			}
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = make(map[string][]float64)
			}
			for _, m := range r.Metrics {
				s.values[r.Workload][m.Name] = append(s.values[r.Workload][m.Name], m.Value)
			}
		}
	}
	return s, nil
}
