package sim

// CPU feature bits read once at start-up: AVX2 with the OS saving the YMM
// state, and FMA.
var haveAVX2, haveFMA = cpuFeatures()

func cpuFeatures() (avx2, fma bool) {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false, false
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsaveBit|avxBit) != osxsaveBit|avxBit {
		return false, false
	}
	// XCR0 bits 1 and 2: the OS saves and restores XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	avx2 = ebx7&(1<<5) != 0
	return avx2, avx2 && ecx1&fmaBit != 0
}

// Implemented in vecmath_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// expAVX2 replaces x[i] with math.Exp(x[i]) 4-lane block by block, in
// place, using AVX2 and FMA. It stops before the first block with a lane
// outside [−708, 0] (NaN included) and returns how many elements it
// replaced, a multiple of 4.
//
//go:noescape
func expAVX2(x []float64) int

// polarScaleAVX2 sets u[j] = polarScale(u[j], s[j]) for the first
// len(u)&^3 elements, using AVX2. len(s) must be at least len(u) and every
// s[j] normal and in (0, 1).
//
//go:noescape
func polarScaleAVX2(u, s []float64)
