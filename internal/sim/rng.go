package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** seeded through SplitMix64). It is NOT safe for concurrent
// use; derive independent substreams with Stream instead of sharing.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used both to seed xoshiro and to derive substream seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Stream derives an independent substream identified by name. Identical
// (seed, name) pairs always produce identical streams, so simulations remain
// reproducible however many components draw randomness.
func (r *RNG) Stream(name string) *RNG {
	// FNV-1a over the name, mixed with the parent's seed material.
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	mix := r.s[0] ^ r.s[2]
	return NewRNG(h ^ (mix * 0x9e3779b97f4a7c15))
}

// StreamN derives an independent substream identified by name and an index,
// e.g. one stream per node.
func (r *RNG) StreamN(name string, n int) *RNG {
	sub := r.Stream(name)
	sm := sub.s[1] ^ (uint64(n+1) * 0xd6e8feb86659fd93)
	return NewRNG(splitmix64(&sm))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// xoshiro is one xoshiro256** step on a state held in values: it returns
// the output and the advanced state. Uint64 and NormFloat64s share it.
func xoshiro(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// unit maps a raw draw to [0, 1) through its top 53 bits.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard-normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u, s := polarPair(r.Uint64(), r.Uint64())
		if polarAccept(s) {
			return polarScale(u, s)
		}
	}
}

// The three steps of the polar method, shared by NormFloat64 and
// NormFloat64s so both produce the same bits: a candidate point (u, v) in
// the square [-1, 1)² from two raw draws, with s = u² + v²; acceptance iff
// the point lies strictly inside the unit disc and off the origin; and the
// transform of an accepted (u, s) into a standard-normal variate.

func polarPair(a, b uint64) (u, s float64) {
	u = 2*unit(a) - 1
	v := 2*unit(b) - 1
	return u, u*u + v*v
}

// polarAccept tests 0 < s < 1 as one unsigned compare of the bit
// patterns, which order like the values for the non-negative, non-NaN s
// that polarPair yields; the kernel's acceptance count then needs no
// branch.
func polarAccept(s float64) bool {
	return math.Float64bits(s)-1 < math.Float64bits(1)-1
}

func polarScale(u, s float64) float64 { return u * math.Sqrt(-2*math.Log(s)/s) }

// normBlock is how many accepted polar pairs NormFloat64s buffers on the
// stack before transforming them.
const normBlock = 256

// NormFloat64s fills dst with standard-normal variates: exactly the values,
// in order, that len(dst) successive NormFloat64 calls would return, and it
// leaves the generator in the same state they would.
//
// It works in blocks. The first pass draws candidate pairs with the xoshiro
// state held in locals and stores every candidate, advancing the output
// index only on acceptance, so no data-dependent branch guards the store.
// The second pass transforms the block with independent iterations, so the
// divisions, logarithms and square roots of neighbouring variates overlap;
// on AVX2 hosts it runs four lanes at a time (see polarScales).
func (r *RNG) NormFloat64s(dst []float64) {
	var sb [normBlock]float64
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for len(dst) > 0 {
		blk := dst[:min(len(dst), normBlock)]
		sv := sb[:len(blk)]
		for k := 0; k < len(blk); {
			var a, b uint64
			a, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			b, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			u, s := polarPair(a, b)
			blk[k], sv[k] = u, s
			inc := 0
			if polarAccept(s) {
				inc = 1
			}
			k += inc
		}
		polarScales(blk, sv)
		dst = dst[len(blk):]
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// ExpFloat64 returns an exponentially distributed variate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
