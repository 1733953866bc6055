// Package rng implements the deterministic pseudo-random number generator
// used throughout the simulator.
//
// Reproducibility is a hard requirement: a Monte-Carlo run is identified by
// a single uint64 seed, and every stochastic component (topology placement,
// receiver selection, MAC backoff, protocol jitter) draws from its own named
// substream derived from that seed. Two components never share a stream, so
// adding randomness to one cannot perturb another — runs stay comparable
// across protocols and code revisions.
//
// The generator is xoshiro256++ seeded through splitmix64, both implemented
// here from the public-domain reference algorithms (Blackman & Vigna). The
// standard library's math/rand/v2 is deliberately not used so the stream is
// pinned to this repository rather than to a Go release.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances the given state and returns the next output. It is
// used to spread a user seed into the 256-bit xoshiro state and to hash
// substream names.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d49bb133111eb
	return z ^ (z >> 31)
}

// hashString folds a substream name into a 64-bit value (FNV-1a).
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// RNG is a deterministic xoshiro256++ generator. It is not safe for
// concurrent use; derive one RNG per goroutine (or per simulated component)
// with Derive.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via splitmix64.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed (re)initialises r in place to the stream New(seed) would produce.
// Session pooling uses it to reseed long-lived generators without
// allocating.
func (r *RNG) Seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Derive returns a new independent generator whose stream is a pure function
// of (r's original seed material, name). Deriving the same name twice from
// generators in the same state yields identical streams.
func (r *RNG) Derive(name string) *RNG {
	n := &RNG{}
	r.DeriveInto(name, n)
	return n
}

// DeriveInto writes the stream Derive(name) would return into dst,
// reusing its storage. dst may be any generator (its prior state is
// overwritten); r is read without being advanced, exactly like Derive.
func (r *RNG) DeriveInto(name string, dst *RNG) {
	st := r.s[0] ^ rotl(r.s[1], 13) ^ hashString(name)
	for i := range dst.s {
		dst.s[i] = splitmix64(&st)
	}
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = hashString(name) | 1
	}
}

func rotl(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}

// Uint64 returns the next 64 random bits (xoshiro256++).
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method keeps the distribution exact.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to avoid modulo bias.
	threshold := -n % n // == (2^64 - n) mod n
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntRange returns a uniform int in [lo, hi). It panics if hi <= lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi <= lo {
		panic("rng: IntRange with hi <= lo")
	}
	return lo + r.Intn(hi-lo)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomises the order of n elements using swap (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	// Partial Fisher–Yates over an index array: O(n) space, O(n + k) time.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := r.IntRange(i, n)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	return out
}
