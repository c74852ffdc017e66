package sim

import "math/rand"

// RNG wraps a seeded generator with the distributions the workload
// generators need. Every experiment threads an explicit RNG so that runs
// are reproducible from the seed alone.
//
// The source is the package's own copy of math/rand's lagged-Fibonacci
// generator (rng.go). It seeds to the state rand.NewSource(seed) builds,
// through a shorter dependency chain, and every variate is drawn by a
// rand.Rand over it, so each draw is bit for bit math/rand's.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	src := new(source)
	src.Seed(seed)
	return &RNG{r: rand.New(src)}
}

// Float64 returns a uniform float in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// UniformDuration returns a duration uniform in [lo, hi).
func (g *RNG) UniformDuration(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(g.r.Int63n(int64(hi-lo)))
}

// Exponential returns a duration exponentially distributed with the given
// mean. Used for open-loop Poisson arrival processes.
func (g *RNG) Exponential(mean Time) Time {
	d := Time(g.r.ExpFloat64() * float64(mean))
	if d < 0 {
		d = 0
	}
	return d
}

// Zipf returns a generator of Zipfian values in [0, n) with skew s > 1.
// Used for hot/cold data locality in macro workloads.
func (g *RNG) Zipf(s float64, n uint64) *rand.Zipf {
	return rand.NewZipf(g.r, s, 1, n-1)
}
