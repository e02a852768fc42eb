// Package stats provides small statistical helpers used by the trace
// generator and the metrics collectors: summary statistics, online
// (Welford) accumulators, and lognormal sampling.
package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// ErrEmpty is returned by summary functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// ErrPercentile is returned by Percentile for a rank outside [0, 100] or NaN.
var ErrPercentile = errors.New("stats: percentile out of range")

// Contract: Mean, StdDev, and the Online accumulator report 0 (never an
// error) when fewer observations are present than the statistic needs —
// they feed running displays where a zero placeholder is correct. Min,
// Max, and Percentile instead return ErrEmpty for an empty sample set,
// because no placeholder value is safe for an extremum.

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when fewer
// than two samples are present.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Min returns the smallest value in xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest value in xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks: p=0 is the minimum, p=100 the
// maximum, and a single-element sample yields that element for every p.
// The input slice is not modified. An empty sample returns ErrEmpty; a
// NaN or out-of-range p returns ErrPercentile.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if math.IsNaN(p) || p < 0 || p > 100 {
		return 0, ErrPercentile
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Online accumulates mean and variance incrementally using Welford's
// algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N reports the number of observations added so far.
func (o *Online) N() int { return o.n }

// Mean reports the running mean, or 0 with no observations.
func (o *Online) Mean() float64 { return o.mean }

// Variance reports the running population variance, or 0 with fewer than
// two observations. Accumulated floating-point error can drive m2 a hair
// below zero for near-constant series; clamp so Variance (and StdDev,
// which takes its square root) never goes negative or NaN.
func (o *Online) Variance() float64 {
	if o.n < 2 || o.m2 <= 0 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev reports the running population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min reports the smallest observation, or 0 with no observations.
func (o *Online) Min() float64 { return o.min }

// Max reports the largest observation, or 0 with no observations.
func (o *Online) Max() float64 { return o.max }

// Lognormal describes a lognormal distribution with the location parameter
// Mu and scale parameter Sigma of the underlying normal.
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// PDF evaluates the lognormal probability density at t. It is the job
// submission rate function R_ln(t) of the paper (Section 3.3.2): zero for
// t <= 0 and (1/(sqrt(2*pi)*sigma*t)) * exp(-(ln t - mu)^2 / (2*sigma^2))
// otherwise.
func (l Lognormal) PDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	d := math.Log(t) - l.Mu
	return math.Exp(-d*d/(2*l.Sigma*l.Sigma)) / (math.Sqrt(2*math.Pi) * l.Sigma * t)
}

// CDF evaluates the lognormal cumulative distribution at t.
func (l Lognormal) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(t)-l.Mu)/(l.Sigma*math.Sqrt2))
}

// Sample draws one value from the distribution using rng.
func (l Lognormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// SampleTruncated draws one value from the distribution conditioned on the
// interval (0, upper]. It uses inverse-transform sampling on the truncated
// CDF so that any upper bound, however far in the tail, succeeds. Far out
// in the tail the bisection's bracket can stop above upper, so the draw is
// clamped to it.
func (l Lognormal) SampleTruncated(rng *rand.Rand, upper float64) float64 {
	cu := l.CDF(upper)
	if cu <= 0 {
		return upper
	}
	u := rng.Float64() * cu
	return min(l.Quantile(u), upper)
}

// Quantile inverts the CDF by bisection. p must be in (0, 1).
//
// The bisection stops at its fixed point: the first step that leaves both
// lo and hi unchanged. That is exact, not an approximation. Each step is a
// deterministic function of (lo, hi), so once a step changes neither,
// every later step computes the same mid and the same CDF and makes the
// same assignment; the result is bit-identical to running all 200 steps.
// The 200-step cap still bounds the loop for NaN bounds, which never
// compare equal.
func (l Lognormal) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Bracket the root: the median is exp(mu); expand both directions.
	lo, hi := medianStart(l.Mu), medianStart(l.Mu)
	for l.CDF(lo) > p {
		lo /= 2
		if lo < 1e-300 {
			break
		}
	}
	for l.CDF(hi) < p {
		hi *= 2
		if hi > 1e300 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if l.CDF(mid) < p {
			if lo == mid {
				break
			}
			lo = mid
		} else {
			if hi == mid {
				break
			}
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// medianStart is the bracket's starting point, exp(mu). A median that
// underflows to 0 or overflows to +Inf would never move under halving or
// doubling, so it starts from the bracket's limit instead.
func medianStart(mu float64) float64 {
	m := math.Exp(mu)
	switch {
	case m == 0:
		return 1e-300
	case math.IsInf(m, 1):
		return 1e300
	}
	return m
}
