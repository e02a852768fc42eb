package main

import (
	"math"
	"strings"
	"testing"
)

// TestQuartiles pins quartiles to Python's statistics.quantiles(data, n=4),
// which is how the benchmark's spreads are judged.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.2, 0.1, 0.4, 0.3, 0.5, 0.9, 0.7, 0.6, 0.8, 1.0}, [3]float64{0.275, 0.55, 0.825}},
	} {
		got := quartiles(c.data)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "pass_ref_s.p50", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "jobs_per_ref_s", Better: "higher", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name    string
		m       specMetric
		a, b    []float64
		agree   bool
		verdict string
		bad     bool
	}{
		{"slower past the bound", lower, steady, scale(steady, 1.2), false, "REGRESSION", true},
		{"slower within the bound", lower, steady, scale(steady, 1.05), false, "no change", false},
		{"faster in every pair", lower, steady, scale(steady, 0.9), false, "gain", false},
		{"fewer jobs per second", higher, steady, scale(steady, 0.8), false, "REGRESSION", true},
		{"noisy parent", lower, []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, scale(steady, 1.5), false, "unresolved", false},
		{"same commit", lower, steady, scale(steady, 1.03), true, "agree", false},
		{"same commit apart", lower, steady, scale(steady, 1.3), true, "DISAGREE", true},
	} {
		row, bad := judge(c.m, c.a, c.b, c.agree)
		if !strings.Contains(row, c.verdict) || bad != c.bad {
			t.Errorf("%s: row %q (bad %v), want verdict %q (bad %v)", c.name, row, bad, c.verdict, c.bad)
		}
	}
}
