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

// polarScaleAVX2 sets u[j] = polarScale(u[j], s[j]) for the first
// len(u)&^3 elements, using AVX2. len(s) must be at least len(u) and every
// s[j] normal and in (0, 1).
//
//go:noescape
func polarScaleAVX2(u, s []float64)

// plumeSumsAVX2 runs PlumeSums' kernel on the first len(v)&^3 points, one
// 4-point group at a time, using AVX2 and FMA. It stops before the first
// group with a kept term whose exponent argument lies outside [−708, 0]
// (NaN included), leaving that group's v untouched, and returns how many
// points it summed. x, y and slack must be at least as long as v.
//
//go:noescape
func plumeSumsAVX2(v, x, y, slack []float64, plumes []Plume) int

// sweepAVX2 runs SweepWindows' test on every pair, using AVX2, and returns
// how many it flagged. len(mask) must be a multiple of 4 and no slice
// shorter than mask.
//
//go:noescape
func sweepAVX2(mask []uint8, bit uint8, base, cum, spanLo, spanHi float64,
	noise, bias, snapP, snapC, lo, hi []float64) int64
