// Package xrand provides small, fast, deterministic pseudo-random number
// generators and the distributions the simulator needs.
//
// Every experiment in this repository must be reproducible bit-for-bit
// across runs and Go versions, so the package implements its own generator
// (SplitMix64) instead of relying on math/rand, whose stream is not
// guaranteed stable across releases. A generator is a plain struct:
// copying one forks the stream, and it is not safe for concurrent use
// (give each goroutine its own generator, seeded with DeriveSeed).
package xrand

import "math"

// Rand is a deterministic pseudo-random generator based on SplitMix64
// (Steele, Lea, Flood 2014). The zero value is a valid generator seeded
// with zero; prefer New so distinct seeds are well mixed.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators created with the
// same seed produce identical streams.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// DeriveSeed maps (base seed, index) to a derived seed: a SplitMix64
// scramble of both inputs, so neighbouring indices get statistically
// independent streams and the derivation is a pure function — independent
// of worker count, scheduling, and execution order. It never returns 0, so
// the result is always distinguishable from an unset seed. This is THE
// seed-derivation rule of the repository: sweep drivers derive per-point
// traffic seeds with it, sessions derive per-group tree seeds with it, and
// the scenario layer derives per-group membership streams with it (ad-hoc
// arithmetic like base*1000+i collides across nearby bases and correlates
// adjacent streams).
func DeriveSeed(base uint64, index int) uint64 {
	r := New(base ^ (uint64(index+1) * 0x9e3779b97f4a7c15))
	s := r.Uint64()
	if s == 0 {
		s = 1
	}
	return s
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative int64 uniform on [0, 2^63).
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns an int uniform on [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Int63n(int64(n)))
}

// Int63n returns an int64 uniform on [0, n), using rejection sampling to
// avoid modulo bias. It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with n <= 0")
	}
	if n&(n-1) == 0 { // power of two
		return r.Int63() & (n - 1)
	}
	// The acceptance threshold (1<<63)-1-(1<<63)%n is never below
	// (1<<63)-1-n, so a draw at or under that is accepted without the
	// division computing the threshold costs.
	v := r.Int63()
	if v > math.MaxInt64-n {
		max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
		for v > max {
			v = r.Int63()
		}
	}
	return v % n
}

// IntRange returns an int uniform on [lo, hi] inclusive. It panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a float64 uniform on [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// ShuffleInt32s is ShuffleInts over int32s: the same draws, so the same
// permutation, in half the memory.
func (r *Rand) ShuffleInt32s(s []int32) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1,
// via inverse transform sampling.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *Rand) Exp(mean float64) float64 { return mean * r.ExpFloat64() }

// NormFloat64 returns a standard-normal float64 using the Marsaglia polar
// method (no cached second value, to keep the stream position deterministic
// per call count is not required; determinism per seed is what matters).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a log-normally distributed float64 where the underlying
// normal has parameters mu and sigma.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}
