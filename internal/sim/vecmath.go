package sim

import "math"

// Vector kernels. On amd64 hosts with AVX2 two assembly kernels take the
// hot loops of the field model, each a lane-for-lane replay of the scalar
// math it replaces, so every output bit is unchanged:
//
//   - the polar transform u·√(−2·ln s / s) behind NormFloat64s replays
//     math.Log's amd64 assembly, a fixed sequence of plain IEEE operations
//     that never depends on the CPU's features;
//   - Exps replays the FMA path of math.Exp's amd64 assembly. math.Exp
//     takes that path only when the CPU has AVX and FMA (and GODEBUG does
//     not switch FMA off), so the kernel is enabled only after a one-time
//     probe shows that the host's math.Exp agrees with it on inputs where
//     the FMA and non-FMA paths differ.
//
// Elsewhere, and wherever a kernel is off, the scalar loops run. The
// switches are variables only so that tests can force the kernels off.
var (
	useNormKernel = haveAVX2
	useExpKernel  = haveAVX2 && haveFMA && expProbe()
)

// expProbeInputs are arguments on which math.Exp's amd64 FMA and non-FMA
// paths round differently (a test replays both paths to keep it so).
var expProbeInputs = [8]float64{
	-0.009983, -0.099996, -0.999955, -1.99994, -4.99991, -9.99995, -19.9994, -39.9994,
}

// expProbe reports whether the exp kernel reproduces math.Exp on the probe
// inputs, i.e. whether this host's math.Exp takes the path the kernel
// replays.
func expProbe() bool {
	x := expProbeInputs
	if expAVX2(x[:]) != len(x) {
		return false
	}
	for i, v := range expProbeInputs {
		if math.Float64bits(x[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}

// Exps replaces every x[i] with math.Exp(x[i]), bit for bit. The kernel
// handles 4-lane blocks whose lanes all lie in [−708, 0], where math.Exp
// has neither a special case nor a subnormal result; any other block, and
// the tail, goes through math.Exp element by element.
func Exps(x []float64) {
	if useExpKernel {
		for len(x) >= 4 {
			x = x[expAVX2(x):]
			if len(x) < 4 {
				break
			}
			for j := range 4 {
				x[j] = math.Exp(x[j])
			}
			x = x[4:]
		}
	}
	for i, v := range x {
		x[i] = math.Exp(v)
	}
}

// polarScales applies polarScale to every (u[j], s[j]) in place. Every
// s[j] must be an accepted polar radius (0 < s < 1; polarPair makes it a
// multiple of 2⁻¹⁰⁴, so it is normal), which is all the kernel handles.
func polarScales(u, s []float64) {
	s = s[:len(u)]
	if useNormKernel {
		n := len(u) &^ 3
		polarScaleAVX2(u[:n], s[:n])
		u, s = u[n:], s[n:]
	}
	for j := range u {
		u[j] = polarScale(u[j], s[j])
	}
}
