package sim

import (
	"math"
	"testing"
)

// TestNormFloat64sMatchesNormFloat64 pins the block kernel to the scalar
// polar method: the same bits, in order, and the same generator state
// afterwards (checked through the next Uint64), for lengths around the
// 4-lane and block boundaries and at network scale, with the polar kernel
// as the host enables it and forced off.
func TestNormFloat64sMatchesNormFloat64(t *testing.T) {
	lengths := append([]int{normBlock - 1, normBlock, normBlock + 1, 1000}, kernelLengths...)
	kernelModes(t, func(t *testing.T) {
		for _, seed := range []uint64{1, 2, 7, 42, 1 << 40} {
			for _, n := range lengths {
				block, scalar := NewRNG(seed), NewRNG(seed)
				got := make([]float64, n)
				block.NormFloat64s(got)
				for i := range got {
					want := scalar.NormFloat64()
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("seed %d, n %d: draw %d = %v, want %v", seed, n, i, got[i], want)
					}
				}
				if b, s := block.Uint64(), scalar.Uint64(); b != s {
					t.Fatalf("seed %d, n %d: next Uint64 %#x, want %#x (state diverged)", seed, n, b, s)
				}
			}
		}
	})
}

// BenchmarkNormFloat64s compares one 25 000-variate block draw (one AR(1)
// noise step of a 25 000-node field type) with the polar kernel as the
// host enables it, the same block draw with the kernel forced off, and
// the scalar loop.
func BenchmarkNormFloat64s(b *testing.B) {
	const n = 25000
	dst := make([]float64, n)
	b.Run("block", func(b *testing.B) {
		r := NewRNG(1)
		for range b.N {
			r.NormFloat64s(dst)
		}
	})
	b.Run("block-kernel-off", func(b *testing.B) {
		defer func(on bool) { useNormKernel = on }(useNormKernel)
		useNormKernel = false
		r := NewRNG(1)
		for range b.N {
			r.NormFloat64s(dst)
		}
	})
	b.Run("loop", func(b *testing.B) {
		r := NewRNG(1)
		for range b.N {
			for i := range dst {
				dst[i] = r.NormFloat64()
			}
		}
	})
}
