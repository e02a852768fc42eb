package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{7}, want: 7},
		{name: "pair", give: []float64{2, 4}, want: 3},
		{name: "negatives", give: []float64{-1, 1, -3, 3}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.give); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{5}, want: 0},
		{name: "constant", give: []float64{3, 3, 3}, want: 0},
		{name: "spread", give: []float64{2, 4, 4, 4, 5, 5, 7, 9}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := StdDev(tt.give); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("StdDev(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %v, %v; want -1, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %v, %v; want 7, nil", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) error = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) error = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{50, 3},
		{100, 5},
		{25, 2},
		{75, 4},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v) error: %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil) error = %v, want ErrEmpty", err)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
	// Percentile must not reorder the caller's slice.
	ys := []float64{5, 1, 3}
	if _, err := Percentile(ys, 50); err != nil {
		t.Fatal(err)
	}
	if ys[0] != 5 || ys[1] != 1 || ys[2] != 3 {
		t.Errorf("Percentile mutated input: %v", ys)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if o.N() != len(xs) {
		t.Errorf("N = %d, want %d", o.N(), len(xs))
	}
	if math.Abs(o.Mean()-Mean(xs)) > 1e-12 {
		t.Errorf("online mean %v != batch %v", o.Mean(), Mean(xs))
	}
	if math.Abs(o.StdDev()-StdDev(xs)) > 1e-12 {
		t.Errorf("online stddev %v != batch %v", o.StdDev(), StdDev(xs))
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", o.Min(), o.Max())
	}
}

func TestOnlineZeroValue(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.StdDev() != 0 || o.N() != 0 {
		t.Error("zero-value Online should report zeros")
	}
	o.Add(3)
	if o.StdDev() != 0 {
		t.Error("single observation should have zero stddev")
	}
}

// Property: online accumulation agrees with batch computation on arbitrary
// inputs.
func TestOnlineProperty(t *testing.T) {
	f := func(raw []int16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		var o Online
		for _, x := range xs {
			o.Add(x)
		}
		return math.Abs(o.Mean()-Mean(xs)) < 1e-6 &&
			math.Abs(o.StdDev()-StdDev(xs)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLognormalPDF(t *testing.T) {
	l := Lognormal{Mu: 0, Sigma: 1}
	if got := l.PDF(-1); got != 0 {
		t.Errorf("PDF(-1) = %v, want 0", got)
	}
	if got := l.PDF(0); got != 0 {
		t.Errorf("PDF(0) = %v, want 0", got)
	}
	// Standard lognormal density at t=1 is 1/sqrt(2*pi).
	want := 1 / math.Sqrt(2*math.Pi)
	if got := l.PDF(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("PDF(1) = %v, want %v", got, want)
	}
}

func TestLognormalCDF(t *testing.T) {
	l := Lognormal{Mu: 2, Sigma: 0.5}
	if got := l.CDF(0); got != 0 {
		t.Errorf("CDF(0) = %v, want 0", got)
	}
	// CDF at the median exp(mu) must be exactly one half.
	if got := l.CDF(math.Exp(2)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(median) = %v, want 0.5", got)
	}
	// CDF must be monotone.
	prev := 0.0
	for t10 := 1; t10 < 100; t10++ {
		c := l.CDF(float64(t10))
		if c < prev {
			t.Fatalf("CDF not monotone at %d: %v < %v", t10, c, prev)
		}
		prev = c
	}
}

func TestLognormalQuantileInvertsCDF(t *testing.T) {
	l := Lognormal{Mu: 3, Sigma: 1.5}
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		q := l.Quantile(p)
		if got := l.CDF(q); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if l.Quantile(0) != 0 {
		t.Error("Quantile(0) should be 0")
	}
	if !math.IsInf(l.Quantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
}

// referenceQuantile is Quantile without the fixed-point stop: the same
// bracket, then all 200 bisection steps unconditionally.
func referenceQuantile(l Lognormal, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
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
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// quantileEdges are probabilities at the ends of (0, 1) and its middle:
// the smallest subnormal, a tiny normal, one below float64's resolution
// at 1, one half, and the largest float64 below 1.
var quantileEdges = []float64{5e-324, 1e-300, 1e-17, 0.5, 1 - 0x1p-53}

// TestQuantileMatchesReference checks Quantile bit for bit against the
// 200-step reference on every distribution the trace generator samples:
// the five standard levels (sigma = mu, truncated at the level's window
// in minutes) and the sigma = mu = 2 and 3 custom configurations.
func TestQuantileMatchesReference(t *testing.T) {
	cases := []struct {
		sigma, upper float64
	}{
		{4, 3586.0 / 60},
		{3.7, 3589.0 / 60},
		{3, 3581.0 / 60},
		{2, 3585.0 / 60},
		{1.5, 3582.0 / 60},
		{2, 5},
		{3, 30},
	}
	const draws = 10000
	for _, c := range cases {
		l := Lognormal{Mu: c.sigma, Sigma: c.sigma}
		cu := l.CDF(c.upper)
		rng := rand.New(rand.NewSource(1))
		ps := append([]float64(nil), quantileEdges...)
		for i := 0; i < draws; i++ {
			ps = append(ps, rng.Float64()*cu)
		}
		for _, p := range ps {
			got, want := l.Quantile(p), referenceQuantile(l, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sigma=mu=%v upper=%v: Quantile(%v) = %v, reference %v", c.sigma, c.upper, p, got, want)
			}
		}
	}
}

// TestQuantileExtremeMedian covers medians exp(mu) that underflow to 0 or
// overflow to +Inf, which halving and doubling cannot move: Quantile must
// still return a finite, positive value. Accuracy is not checked; 200
// arithmetic bisection steps cannot resolve a bracket that spans hundreds
// of decades.
func TestQuantileExtremeMedian(t *testing.T) {
	for _, tc := range []struct{ mu, p float64 }{{1000, 0.1}, {-1000, 0.9}} {
		q := Lognormal{Mu: tc.mu, Sigma: 1000}.Quantile(tc.p)
		if !(q > 0) || math.IsInf(q, 1) {
			t.Errorf("mu=%v: Quantile(%v) = %v, want finite and positive", tc.mu, tc.p, q)
		}
	}
}

// FuzzQuantile checks Quantile bit for bit against the 200-step reference
// for any mu, sigma and p, non-finite ones included.
func FuzzQuantile(f *testing.F) {
	for _, s := range []float64{4, 3.7, 3, 2, 1.5} {
		for _, p := range quantileEdges {
			f.Add(s, s, p)
		}
	}
	f.Add(2.0, 2.0, 0.3)
	f.Add(1000.0, 1000.0, 0.1)
	f.Add(-1000.0, 1000.0, 0.9)
	f.Add(0.0, -1.0, 0.5)
	f.Add(0.0, 0.0, 0.5)
	f.Add(math.NaN(), 1.0, 0.5)
	f.Add(1.0, math.NaN(), 0.5)
	f.Add(1.0, math.Inf(1), 0.5)
	f.Add(math.Inf(-1), 1.0, 0.5)
	f.Add(1.0, 1.0, math.NaN())
	f.Fuzz(func(t *testing.T, mu, sigma, p float64) {
		l := Lognormal{Mu: mu, Sigma: sigma}
		got, want := l.Quantile(p), referenceQuantile(l, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Lognormal{%v, %v}.Quantile(%v) = %v, reference %v", mu, sigma, p, got, want)
		}
	})
}

func TestSampleTruncated(t *testing.T) {
	l := Lognormal{Mu: 4, Sigma: 4}
	rng := rand.New(rand.NewSource(1))
	upper := 3586.0
	for i := 0; i < 1000; i++ {
		v := l.SampleTruncated(rng, upper)
		if v <= 0 || v > upper {
			t.Fatalf("truncated sample %v out of (0, %v]", v, upper)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	l := Lognormal{Mu: 1, Sigma: 1}
	a := l.Sample(rand.New(rand.NewSource(42)))
	b := l.Sample(rand.New(rand.NewSource(42)))
	if a != b {
		t.Errorf("same seed produced %v and %v", a, b)
	}
}

// Table test over the documented edge-case contracts: empty inputs report
// ErrEmpty where no placeholder is safe, p=0/100 hit the extremes, one
// sample answers every rank, and bad ranks (including NaN) report
// ErrPercentile.
func TestPercentileEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		xs      []float64
		p       float64
		want    float64
		wantErr error
	}{
		{"empty", nil, 50, 0, ErrEmpty},
		{"empty p0", []float64{}, 0, 0, ErrEmpty},
		{"negative rank", []float64{1, 2}, -0.001, 0, ErrPercentile},
		{"rank above 100", []float64{1, 2}, 100.001, 0, ErrPercentile},
		{"NaN rank", []float64{1, 2}, math.NaN(), 0, ErrPercentile},
		{"single p0", []float64{7}, 0, 7, nil},
		{"single p50", []float64{7}, 50, 7, nil},
		{"single p100", []float64{7}, 100, 7, nil},
		{"pair p0 is min", []float64{9, 4}, 0, 4, nil},
		{"pair p100 is max", []float64{9, 4}, 100, 9, nil},
		{"pair interpolates", []float64{9, 4}, 50, 6.5, nil},
		{"unsorted p25", []float64{5, 1, 4, 2, 3}, 25, 2, nil},
	}
	for _, tt := range tests {
		got, err := Percentile(tt.xs, tt.p)
		if err != tt.wantErr {
			t.Errorf("%s: err = %v, want %v", tt.name, err, tt.wantErr)
			continue
		}
		if err == nil && math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s: Percentile = %v, want %v", tt.name, got, tt.want)
		}
	}
}

// Table test over the Online accumulator's small-n contracts and the
// variance floor: n<2 reports zero variance, and no input sequence may
// ever drive Variance (hence StdDev) negative or NaN.
func TestOnlineEdgeCases(t *testing.T) {
	tests := []struct {
		name     string
		xs       []float64
		mean     float64
		variance float64
		min, max float64
	}{
		{"no observations", nil, 0, 0, 0, 0},
		{"one observation", []float64{5}, 5, 0, 5, 5},
		{"two equal", []float64{3, 3}, 3, 0, 3, 3},
		{"two observations", []float64{2, 6}, 4, 4, 2, 6},
		{"negative values", []float64{-4, -8}, -6, 4, -8, -4},
	}
	for _, tt := range tests {
		var o Online
		for _, x := range tt.xs {
			o.Add(x)
		}
		if o.N() != len(tt.xs) {
			t.Errorf("%s: N = %d", tt.name, o.N())
		}
		if math.Abs(o.Mean()-tt.mean) > 1e-12 {
			t.Errorf("%s: Mean = %v, want %v", tt.name, o.Mean(), tt.mean)
		}
		if math.Abs(o.Variance()-tt.variance) > 1e-12 {
			t.Errorf("%s: Variance = %v, want %v", tt.name, o.Variance(), tt.variance)
		}
		if o.Min() != tt.min || o.Max() != tt.max {
			t.Errorf("%s: min/max = %v/%v, want %v/%v", tt.name, o.Min(), o.Max(), tt.min, tt.max)
		}
	}
}

// Property: variance and stddev are never negative or NaN, even for
// near-constant series where Welford's m2 can round below zero.
func TestOnlineVarianceNeverNegative(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		base := 1e15 * (rng.Float64() - 0.5)
		var o Online
		for i := 0; i < int(n)+2; i++ {
			o.Add(base + 1e-9*rng.Float64())
		}
		v := o.Variance()
		return v >= 0 && !math.IsNaN(v) && !math.IsNaN(o.StdDev())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStdDevSmallSamples(t *testing.T) {
	if got := StdDev(nil); got != 0 {
		t.Errorf("StdDev(nil) = %v, want 0", got)
	}
	if got := StdDev([]float64{4}); got != 0 {
		t.Errorf("StdDev(one) = %v, want 0", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}
