package stats

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestQuantileWindowTaken: on the trace distributions at least 99% of
// draws get a certified window, and it holds the quantile. A window that
// silently fell back to the open one would keep every result right and
// only lose the speed, so this is what would notice.
func TestQuantileWindowTaken(t *testing.T) {
	const draws = 10000
	for _, c := range traceDists {
		l := Lognormal{Mu: c.sigma, Sigma: c.sigma}
		cu := l.CDF(c.upper)
		rng := rand.New(rand.NewSource(1))
		taken := 0
		for i := 0; i < draws; i++ {
			p := rng.Float64() * cu
			w := l.quantileWindow(p)
			if w == openWindow {
				continue
			}
			taken++
			if q := l.Quantile(p); !(w.a < q && q < w.b) {
				t.Fatalf("sigma=mu=%v: Quantile(%v) = %v outside its window (%v, %v)", c.sigma, p, q, w.a, w.b)
			}
		}
		if taken < draws*99/100 {
			t.Errorf("sigma=mu=%v upper=%v: %d of %d draws got a window, want at least 99%%", c.sigma, c.upper, taken, draws)
		}
	}
}

// TestQuantileWindowSound checks the certificate directly, without the
// bisection: the float CDF is below p at and just under a, and above p at
// and just over b, for trace draws and for random parameters and tails.
func TestQuantileWindowSound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(l Lognormal, p float64) {
		w := l.quantileWindow(p)
		if w == openWindow {
			return
		}
		if !(0 < w.a && w.a < w.b && !math.IsInf(w.b, 1)) {
			t.Fatalf("%+v p=%v: malformed window (%v, %v)", l, p, w.a, w.b)
		}
		xa, xb := w.a, w.b
		for k := 0; k < 64; k++ {
			if c := l.CDF(xa); !(c < p) {
				t.Fatalf("%+v p=%v: CDF(%v) = %v at or under a = %v, want < p", l, p, xa, c, w.a)
			}
			if c := l.CDF(xb); !(c > p) {
				t.Fatalf("%+v p=%v: CDF(%v) = %v at or over b = %v, want > p", l, p, xb, c, w.b)
			}
			if k < 32 {
				xa, xb = math.Nextafter(xa, 0), math.Nextafter(xb, math.Inf(1))
			} else {
				xa, xb = w.a*(1-math.Ldexp(1, k-80)), w.b*(1+math.Ldexp(1, k-80))
			}
		}
	}
	for _, c := range traceDists {
		l := Lognormal{Mu: c.sigma, Sigma: c.sigma}
		cu := l.CDF(c.upper)
		for i := 0; i < 2000; i++ {
			check(l, rng.Float64()*cu)
		}
	}
	for i := 0; i < 20000; i++ {
		l := Lognormal{Mu: (rng.Float64() - 0.5) * 60, Sigma: math.Exp((rng.Float64() - 0.5) * 16)}
		p := rng.Float64()
		switch i % 3 {
		case 1:
			p = math.Exp(-rng.Float64() * 700)
		case 2:
			p = 1 - math.Exp(-rng.Float64()*36)
		}
		check(l, p)
	}
}

// erfcRef evaluates erfc(z) to well beyond float64 precision: the Taylor
// series of erf below 5.5 and Laplace's continued fraction above.
func erfcRef(z float64) *big.Float {
	const prec = 256
	nf := func() *big.Float { return new(big.Float).SetPrec(prec) }
	bf := func(x float64) *big.Float { return nf().SetFloat64(x) }
	pi, _, _ := big.ParseFloat("3.14159265358979323846264338327950288419716939937510582097494", 10, prec, big.ToNearestEven)
	sqrtPi := nf().Sqrt(pi)
	if z < 0 {
		return nf().Sub(bf(2), erfcRef(-z))
	}
	Z := bf(z)
	if z < 5.5 {
		z2 := nf().Mul(Z, Z)
		sum, pow := nf().Set(Z), nf().Set(Z)
		for n := 1; n < 1000; n++ {
			pow.Mul(pow, z2)
			pow.Quo(pow, bf(float64(-n)))
			term := nf().Quo(pow, bf(float64(2*n+1)))
			sum.Add(sum, term)
			if term.Sign() == 0 || term.MantExp(nil) < sum.MantExp(nil)-prec-8 {
				break
			}
		}
		return nf().Sub(bf(1), nf().Quo(nf().Mul(sum, bf(2)), sqrtPi))
	}
	cf := nf().Set(Z)
	for k := 200; k >= 1; k-- {
		cf = nf().Add(Z, nf().Quo(bf(float64(k)/2), cf))
	}
	// exp(-z^2): halve the exponent below 1/64, sum the series, square back.
	y := nf().Mul(Z, Z)
	halvings := 0
	for y.Cmp(bf(1.0/64)) > 0 {
		y.Quo(y, bf(2))
		halvings++
	}
	e, term := bf(1), bf(1)
	for n := 1; n < 60; n++ {
		term.Mul(term, y)
		term.Quo(term, bf(float64(-n)))
		e.Add(e, term)
	}
	for ; halvings > 0; halvings-- {
		e.Mul(e, e)
	}
	return nf().Quo(e, nf().Mul(sqrtPi, cf))
}

// TestErfcWithinEta holds math.Erfc to an eighth of the relative error
// bound the quantile certificate assumes, against erfcRef, on a grid over
// [-6, 26.5] (erfc spans 2 down to 1e-307 there), around the boundaries
// of its piecewise approximations, and at random arguments.
func TestErfcWithinEta(t *testing.T) {
	zs := []float64{0, 0x1p-60, 0x1p-28, -0x1p-28, 1.0 / 4, 0.84375, -0.84375, 1.25, -1.25, 1 / 0.35, -1 / 0.35, 6, -6, 26.5}
	for i := range zs[:len(zs):len(zs)] {
		for k := 1; k <= 3; k++ {
			zs = append(zs, zs[i]*(1+float64(k)*0x1p-52), zs[i]*(1-float64(k)*0x1p-52))
		}
	}
	for z := -6.0; z <= 26.5; z += 1.0 / 64 {
		zs = append(zs, z)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		zs = append(zs, -2+8*rng.Float64())
	}
	worst := 0.0
	for _, z := range zs {
		ref := erfcRef(z)
		diff := new(big.Float).Sub(big.NewFloat(math.Erfc(z)), ref)
		rel, _ := diff.Quo(diff, ref).Float64()
		if rel = math.Abs(rel); rel > worst {
			worst = rel
		}
		if rel > erfcEta/8 {
			t.Errorf("Erfc(%v) = %v: relative error %.3g, over erfcEta/8 = %.3g", z, math.Erfc(z), rel, erfcEta/8)
		}
	}
	t.Logf("%d arguments, worst relative error %.3g (%.2f half-ulps)", len(zs), worst, worst/0x1p-53)
}
