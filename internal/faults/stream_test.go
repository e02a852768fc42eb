package faults

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestMulMod checks the division-free residue against exact arithmetic at
// the edges of its domain and along a Lehmer chain.
func TestMulMod(t *testing.T) {
	m := big.NewInt(seedMod)
	check := func(x, a uint64) {
		want := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(a))
		want.Mod(want, m)
		if got := mulMod(x, a); got != want.Uint64() {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", x, a, got, want.Uint64())
		}
	}
	for _, a := range []uint64{seedMul, seedMul2, seedMul3, seedMul20, seedMod - 1} {
		for _, x := range []uint64{0, 1, 2, 1 << 30, seedMod - 2, seedMod - 1} {
			check(x, a)
		}
	}
	x := uint64(seedZero)
	for i := 0; i < 10000; i++ {
		check(x, seedMul3)
		x = mulMod(x, seedMul)
	}
}

// FuzzStream checks the port against math/rand's own source: for a
// fuzzed seed and draw count the two Int63 sequences agree, and a copy of
// the stream taken halfway replays the second half exactly.
func FuzzStream(f *testing.F) {
	for _, seed := range []int64{
		0, 1, 42, -1, -42, seedZero,
		seedMod, -seedMod, 2 * seedMod, -3 * seedMod, seedMod - 1, seedMod + 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 / seedMod * seedMod,
	} {
		f.Add(seed, uint16(1500))
	}
	f.Add(int64(7), uint16(0))
	f.Add(int64(7), uint16(1))
	f.Add(int64(-7), uint16(rngLen+rngTap))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		var s stream
		s.Seed(seed)
		ref := rand.NewSource(seed)
		half := int(n) / 2
		var saved stream
		tail := make([]int64, 0, int(n)-half)
		for i := 0; i < int(n); i++ {
			if i == half {
				saved = s
			}
			got, want := s.Int63(), ref.Int63()
			if got != want {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, i, got, want)
			}
			if i >= half {
				tail = append(tail, got)
			}
		}
		s = saved
		for i, want := range tail {
			if got := s.Int63(); got != want {
				t.Fatalf("seed %d: restored draw %d: %d, want %d", seed, half+i, got, want)
			}
		}
	})
}
