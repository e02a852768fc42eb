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

// Truncated is a lognormal conditioned on the interval (0, upper], with
// the CDF at the bound evaluated once for all its draws.
type Truncated struct {
	dist  Lognormal
	upper float64
	cu    float64 // dist.CDF(upper)
}

// Truncate conditions the distribution on (0, upper].
func (l Lognormal) Truncate(upper float64) Truncated {
	return Truncated{dist: l, upper: upper, cu: l.CDF(upper)}
}

// Sample draws one value by inverse-transform sampling on the truncated
// CDF, so that any upper bound, however far in the tail, succeeds. Far out
// in the tail the bisection's bracket can stop above upper, so the draw is
// clamped to it.
func (t Truncated) Sample(rng *rand.Rand) float64 {
	if t.cu <= 0 {
		return t.upper
	}
	u := rng.Float64() * t.cu
	return min(t.dist.Quantile(u), t.upper)
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
//
// Most comparisons are decided without evaluating the CDF: rootWindow
// certifies an interval around the root outside of which the float CDF's
// side of p is already known (see quantileWindow). Only points inside it
// are evaluated, and every decision equals the evaluated comparison, so
// the path and the result are those of evaluating every point.
func (l Lognormal) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	w := l.quantileWindow(p)
	// Bracket the root: the median is exp(mu); expand both directions.
	lo := medianStart(l.Mu)
	hi := lo
	for w.above(l, lo, p) {
		lo /= 2
		if lo < 1e-300 {
			break
		}
	}
	for w.below(l, hi, p) {
		hi *= 2
		if hi > 1e300 {
			break
		}
	}
	i := 0
	if w.a > 0 {
		lo, hi, i = w.skip(lo, hi)
	}
	for ; i < 200; i++ {
		mid := (lo + hi) / 2
		if w.below(l, mid, p) {
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

// rootWindow is an interval (a, b) around the root of CDF(x) = p: the
// float CDF is below p at every x <= a and above p at every x >= b, so
// only points strictly inside need an evaluation. The open window
// (-Inf, +Inf) certifies nothing; the bisection's points are finite, so
// under it every comparison is evaluated.
type rootWindow struct{ a, b float64 }

var openWindow = rootWindow{math.Inf(-1), math.Inf(1)}

// skip runs the bisection's first steps, while each mid lies outside the
// certified window and differs from both bounds, so that its decision is
// known and it moves a bound. It stops before the first other step and
// reports how many it took, for Quantile's loop to redo that step in
// full. The steps run on the bounds' bit patterns, which order like the
// values for positive floats, and select the bound to move with a mask:
// the decisions are as unpredictable as the root's bits, and a branch on
// each would be mispredicted half the time.
func (w rootWindow) skip(lo, hi float64) (float64, float64, int) {
	a, b := math.Float64bits(w.a), math.Float64bits(w.b)
	lb, hb := math.Float64bits(lo), math.Float64bits(hi)
	i := 0
	for ; i < 200; i++ {
		m := math.Float64bits((math.Float64frombits(lb) + math.Float64frombits(hb)) / 2)
		if m-a-1 < b-a-1 || m == lb || m == hb { // a < m < b, as a < b
			break
		}
		above := uint64(int64(a-m) >> 63) // all ones when m > a, so m >= b
		lb ^= (lb ^ m) &^ above
		hb ^= (hb ^ m) & above
	}
	return math.Float64frombits(lb), math.Float64frombits(hb), i
}

// below reports l.CDF(x) < p.
func (w rootWindow) below(l Lognormal, x, p float64) bool {
	switch {
	case x <= w.a:
		return true
	case x >= w.b:
		return false
	}
	return l.CDF(x) < p
}

// above reports l.CDF(x) > p.
func (w rootWindow) above(l Lognormal, x, p float64) bool {
	switch {
	case x <= w.a:
		return false
	case x >= w.b:
		return true
	}
	return l.CDF(x) > p
}

// The certificate's error model for CDF(x) = 0.5*Erfc(-(Log(x)-mu)/s),
// s = Sigma*Sqrt2, in float64 (unit roundoff 2^-53):
//
//   - math.Log is within 1 ulp, an absolute error of at most 2^-52*|ln x|;
//   - the subtraction and the division each round once;
//   - math.Erfc(z) is within erfcEta*erfc(z) + 2^-1022 of erfc(z);
//   - halving is exact, or off by at most 2^-1075 among the subnormals.
//
// The float Erfc argument is then exactly -t'/s for some t' within
//
//	tau = 8*2^-53*(|ln x| + |mu|) + 2^-570
//
// of the true t = ln x - mu. Log, subtraction and division contribute at
// most 2*2^-53*|ln x| + 2*2^-53*(|ln x| + |mu|), plus terms in 2^-106;
// the factor 8 leaves room for a Log error of up to 3 ulps, and 2^-570
// covers a quotient that underflows, since s <= 2^501. Because erfc
// falls strictly and t + tau rises with x, a point xL whose float CDF
// passes
//
//	CDF(xL)*(1 + 4*erfcEta) + 2^-1019 < p
//
// certifies float CDF(x) < p at every x <= xL*(1 - 2.5*tau): such an x
// has t(x) + tau(x) <= t(xL) - tau(xL), so its float CDF is at most
// CDF(xL)*(1+erfcEta)/(1-erfcEta) plus the absolute terms. The factor 4
// covers that 2*erfcEta and the rounding of the check itself. The upper
// side mirrors it: CDF(xU)*(1 - 4*erfcEta) - 2^-1019 > p certifies every
// x >= xU*(1 + 2.5*tau).
//
// erfcEta is 2^-46, 128 half-ulps. math.Erfc is FreeBSD's erfc: rational
// approximations composed with exp. Its largest relative error measured
// against a 320-bit reference over 300,000 arguments in [-6, 27] was 4.1
// half-ulps (2^-53), so erfcEta leaves a 30-fold margin;
// TestErfcWithinEta holds it to an 8-fold one. A smaller eta would
// narrow the window by a bisection step per halving.
const erfcEta = 0x1p-46

// quantileWindow certifies a rootWindow for p in (0, 1). It returns the
// open window when Sigma is outside [2^-500, 2^500] (non-positive and NaN
// included), |Mu| exceeds 2^500 or is NaN, the root estimate lies outside
// exp(±690), or a certificate still fails after three widenings.
func (l Lognormal) quantileWindow(p float64) rootWindow {
	mu, sigma := l.Mu, l.Sigma
	if !(sigma >= 0x1p-500 && sigma <= 0x1p500 && math.Abs(mu) <= 0x1p500) {
		return openWindow
	}
	// Estimate u = ln x at the root. Erfcinv(2p) is Erfinv(1-2p), and
	// below p = 1/16 the rounding of 1-2p costs the estimate more than
	// the window's width, so one Newton step on ln CDF(e^u) = ln p, which
	// stays well scaled far into the tail, refines it there.
	s := sigma * math.Sqrt2
	u := mu - s*math.Erfcinv(2*p)
	if !(math.Abs(u) <= 690) {
		return openWindow
	}
	z := (u - mu) / s
	dens := math.Exp(-z*z) / (s * math.SqrtPi) // dCDF/du
	if p < 1.0/16 {
		if c := 0.5 * math.Erfc(-z); c > 0 && dens > 0 {
			u -= math.Log(c/p) * c / dens
		}
		if !(math.Abs(u) <= 690) {
			return openWindow
		}
	}
	// The certificate needs CDF about 4*erfcEta*p away from p, and tau
	// away in ln x; start a quarter beyond that and widen eightfold. Every
	// point tried, and its certified bound, lies within e^±1 of e^u.
	tau := 8*0x1p-53*(math.Abs(u)+1+math.Abs(mu)) + 0x1p-570
	delta := 5*erfcEta*p/dens + 2*tau
	x0 := math.Exp(u)
	w := openWindow
	for d, try := delta, 0; try < 4 && d <= 0.5; d, try = d*8, try+1 {
		if w.a = l.certBelow(x0*(1-d), p, tau); w.a > 0 {
			break
		}
	}
	if !(w.a > 0) {
		return openWindow
	}
	for d, try := delta, 0; try < 4 && d <= 0.5; d, try = d*8, try+1 {
		if w.b = l.certAbove(x0*(1+d), p, tau); !math.IsInf(w.b, 1) {
			return w
		}
	}
	return openWindow
}

// certBelow returns a bound a such that the float CDF is below p at
// every x <= a, certified by the CDF at xL, or -Inf if that does not
// certify one. tau must hold for xL and a.
func (l Lognormal) certBelow(xL, p, tau float64) float64 {
	if l.CDF(xL)*(1+4*erfcEta)+0x1p-1019 < p {
		return xL * (1 - 2.5*tau - 0x1p-50)
	}
	return math.Inf(-1)
}

// certAbove mirrors certBelow: a bound b such that the float CDF is above
// p at every x >= b, or +Inf.
func (l Lognormal) certAbove(xU, p, tau float64) float64 {
	if l.CDF(xU)*(1-4*erfcEta)-0x1p-1019 > p {
		return xU * (1 + 2.5*tau + 0x1p-50)
	}
	return math.Inf(1)
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
