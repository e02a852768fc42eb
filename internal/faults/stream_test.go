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

// FuzzStream checks both generators against math/rand's own source: for
// a fuzzed seed and draw count, the register stream's Int63s and the
// sparse stream's, which cross from the seeded prefix to a register after
// rngTap values, both equal rand.NewSource's. At a fuzzed draw each is
// copied, the register stream by value and the sparse stream by the
// injector's save; both copies must replay the rest exactly, and the
// sparse copy must do so twice, restored once into the live stream and
// once into a fresh one, so a restore that shares the saved register
// fails.
func FuzzStream(f *testing.F) {
	for _, seed := range []int64{
		0, 1, 42, -1, -42, seedZero,
		seedMod, -seedMod, 2 * seedMod, -3 * seedMod, seedMod - 1, seedMod + 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 / seedMod * seedMod,
	} {
		f.Add(seed, uint16(1500), uint16(750))
	}
	f.Add(int64(7), uint16(0), uint16(0))
	f.Add(int64(7), uint16(1), uint16(0))
	f.Add(int64(-7), uint16(rngLen+rngTap), uint16((rngLen+rngTap)/2))
	// Across the end of the prefix, copied just before and at it.
	for _, n := range []uint16{rngTap - 1, rngTap, rngTap + 1} {
		for _, at := range []uint16{rngTap - 1, rngTap} {
			f.Add(int64(7), n, at)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n, at uint16) {
		at = min(at, n)
		var reg stream
		reg.Seed(seed)
		sparse := new(sparseStream)
		sparse.Seed(seed)
		ref := rand.NewSource(seed)
		var savedReg stream
		var saved sparseStream
		tail := make([]int64, 0, int(n-at))
		for i := 0; i <= int(n); i++ {
			if i == int(at) {
				savedReg, saved = reg, sparse.save()
			}
			if i == int(n) {
				break
			}
			want := ref.Int63()
			if got := reg.Int63(); got != want {
				t.Fatalf("seed %d draw %d: register %d, want %d", seed, i, got, want)
			}
			if got := sparse.Int63(); got != want {
				t.Fatalf("seed %d draw %d: sparse %d, want %d", seed, i, got, want)
			}
			if i >= int(at) {
				tail = append(tail, want)
			}
		}
		reg = savedReg
		for i, want := range tail {
			if got := reg.Int63(); got != want {
				t.Fatalf("seed %d: restored register draw %d: %d, want %d", seed, int(at)+i, got, want)
			}
		}
		for round, dst := range []*sparseStream{sparse, new(sparseStream)} {
			dst.restore(&saved)
			for i, want := range tail {
				if got := dst.Int63(); got != want {
					t.Fatalf("seed %d: restore %d, sparse draw %d: %d, want %d", seed, round+1, int(at)+i, got, want)
				}
			}
		}
	})
}
