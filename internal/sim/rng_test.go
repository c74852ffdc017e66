package sim

import (
	"math"
	"math/rand"
	"testing"
)

// identitySeeds returns the seeds the generator is checked on: the edges
// of math/rand's seed reduction (zero and its 89482311 stand-in, ±1, the
// modulus 2**31-1 and its multiples, 2**31, the int64 extremes) and
// 2,000 more drawn across the whole int64 range.
func identitySeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, int32max - 1, int32max + 1, 1 << 31, -(1 << 31),
		2 * int32max, 3 * int32max, -5 * int32max, int32max << 20, int32max * (int32max + 2),
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 89482311, -89482311, 89482311 + int32max,
	}
	pick := rand.New(rand.NewSource(20091207))
	for range 2000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand checks the owned source against math/rand's
// own: for every identity seed, a rand.Rand over each draws the same
// 2,000 values of every variate the simulation uses, in one sequence.
// 2,000 draws read every word of the 607-word register at least three
// times, so a wrong cooked constant or warm-up shows in the first pass.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 2000
	var src source
	for _, seed := range identitySeeds() {
		src.Seed(seed)
		got, want := rand.New(&src), rand.New(rand.NewSource(seed))
		gz, wz := rand.NewZipf(got, 1.2, 1, 999), rand.NewZipf(want, 1.2, 1, 999)
		for _, v := range []struct {
			name string
			draw func(*rand.Rand, *rand.Zipf) uint64
		}{
			{"Uint64", func(r *rand.Rand, _ *rand.Zipf) uint64 { return r.Uint64() }},
			{"Int63", func(r *rand.Rand, _ *rand.Zipf) uint64 { return uint64(r.Int63()) }},
			{"Float64", func(r *rand.Rand, _ *rand.Zipf) uint64 { return math.Float64bits(r.Float64()) }},
			{"Int63n", func(r *rand.Rand, _ *rand.Zipf) uint64 { return uint64(r.Int63n(1e12 + 39)) }},
			{"Int63n(2^40)", func(r *rand.Rand, _ *rand.Zipf) uint64 { return uint64(r.Int63n(1 << 40)) }},
			{"Intn", func(r *rand.Rand, _ *rand.Zipf) uint64 { return uint64(r.Intn(1000)) }},
			{"ExpFloat64", func(r *rand.Rand, _ *rand.Zipf) uint64 { return math.Float64bits(r.ExpFloat64()) }},
			{"Zipf", func(_ *rand.Rand, z *rand.Zipf) uint64 { return z.Uint64() }},
		} {
			for i := range draws {
				if g, w := v.draw(got, gz), v.draw(want, wz); g != w {
					t.Fatalf("seed %d: %s draw %d = %#x, math/rand draws %#x", seed, v.name, i, g, w)
				}
			}
		}
	}
}

// TestNewRNGMatchesMathRand checks the RNG's own methods over the owned
// source against the same calls on a math/rand source.
func TestNewRNGMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -3, math.MaxInt64} {
		g := NewRNG(seed)
		w := rand.New(rand.NewSource(seed))
		for i := range 1000 {
			if a, b := g.Float64(), w.Float64(); a != b {
				t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, a, b)
			}
			if a, b := g.Exponential(Millisecond), Time(w.ExpFloat64()*float64(Millisecond)); a != b {
				t.Fatalf("seed %d draw %d: Exponential %v, want %v", seed, i, a, b)
			}
			if a, b := g.UniformDuration(Microsecond, Millisecond), Microsecond+Time(w.Int63n(int64(Millisecond-Microsecond))); a != b {
				t.Fatalf("seed %d draw %d: UniformDuration %v, want %v", seed, i, a, b)
			}
		}
	}
}

// TestMulMod checks the folded reduction against a plain modulo at the
// edges of its domain and along a MINSTD chain.
func TestMulMod(t *testing.T) {
	for _, x := range []uint64{1, 2, seedA, int32max - 1, int32max / 2, 1 << 30} {
		for _, a := range []uint64{seedA, seedA2, seedA3, seedA20, int32max - 1} {
			if got, want := mulMod(x, a), x*a%int32max; got != want {
				t.Errorf("mulMod(%d, %d) = %d, want %d", x, a, got, want)
			}
		}
	}
	x := uint64(1)
	for range 100000 {
		y := x * seedA % int32max
		if got := mulMod(x, seedA); got != y {
			t.Fatalf("mulMod(%d, A) = %d, want %d", x, got, y)
		}
		x = y
	}
}

// BenchmarkNewRNG times building a generator: the seeding pass over the
// 607-word register dominates it.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := range b.N {
		NewRNG(int64(i))
	}
}
