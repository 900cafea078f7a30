// Package stats provides deterministic random number generation,
// probability distributions, quantiles and the KS statistic used
// throughout the trace-synthesis pipeline.
//
// Everything in this package is seeded and reproducible: the same seed
// yields the same stream on every platform, which the test suite and the
// experiment harness rely on.
package stats

import (
	"fmt"
	"math"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** by Blackman and Vigna). It is not safe for concurrent
// use; create one RNG per goroutine via Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed using SplitMix64 so that
// nearby seeds produce unrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from r, advancing r.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// State returns the generator's internal state. A generator restored
// with SetState continues the exact stream from the capture point,
// which is what makes mid-run training checkpoints resumable.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores a state previously captured by State. The
// all-zero state is a fixed point of xoshiro256** (the stream would be
// constant zero), so it is rejected; State never returns it for a
// generator built by NewRNG.
func (r *RNG) SetState(s [4]uint64) error {
	if s == [4]uint64{} {
		return fmt.Errorf("stats: refusing all-zero RNG state")
	}
	r.s = s
	return nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		//tracelint:allow paniccheck — documented argument invariant, mirrors math/rand.Intn
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1). The conversion rounds
// the scaled draw on its own, so a caller's a + b·Float64() cannot fuse
// the scaling into an FMA on targets that have one.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// NormFloat64 returns a standard normal variate via the polar
// Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle randomly permutes the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
