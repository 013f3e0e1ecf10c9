package sim

import "math"

// Vector kernels. On amd64 hosts with AVX2 four assembly kernels take the
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
//     the FMA and non-FMA paths differ;
//   - PlumeSums computes Gaussian plume terms four points at a time: the
//     squared distance over 2σ², both cull tests, and the kept terms
//     through the same exp replay as Exps (one macro in the assembly), so
//     it is on exactly where the exp kernel is;
//   - SweepWindows reconstructs the activity sweep's bracket of a reading
//     and tests it against its window, four pairs at a time.
//
// Every lane operation is a plain IEEE add, subtract, multiply, divide,
// compare or blend, never fused except where the replayed math.Exp fuses,
// so each lane rounds exactly as the scalar Go expression it replaces.
// Elsewhere, and wherever a kernel is off, the scalar loops run. The
// switches are variables only so that tests can force the kernels off.
var (
	useNormKernel  = haveAVX2
	useExpKernel   = haveAVX2 && haveFMA && expProbe()
	useSweepKernel = haveAVX2
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

// Plume is one Gaussian term Amp·exp(−q) of a field sum at a point (x, y),
// with q = ((x−X)² + (y−Y)²) / Den, laid out as PlumeSums reads it. A sum
// whose cull slack is slack drops the term when q > CullQ and q > LnAmp1 +
// slack.
type Plume struct {
	X, Y   float64 // centre
	Den    float64 // 2·σ·σ for spatial stddev σ
	CullQ  float64 // a first, slack-free cull threshold
	LnAmp1 float64 // ln(Amp) + 1
	Amp    float64
}

// PlumeSums adds to each v[i] the terms of plumes at (x[i], y[i]) that a
// sum with cull slack slack[i] keeps, in plume order, each as
// v[i] += Amp·math.Exp(−q). The kernel takes four points at a time (a
// short tail padded with copies of its last point). It hands a group back
// to scalar(lo, hi), which must add the same terms to v[lo:hi], when one
// of its kept terms has an exponent argument outside [−708, 0] (NaN
// included, where math.Exp has its special cases); where the kernel is off
// it hands over everything.
func PlumeSums(v, x, y, slack []float64, plumes []Plume, scalar func(lo, hi int)) {
	n := len(v)
	x, y, slack = x[:n], y[:n], slack[:n]
	if !useExpKernel {
		scalar(0, n)
		return
	}
	k := 0
	for n-k >= 4 {
		k += plumeSumsAVX2(v[k:], x[k:], y[k:], slack[k:], plumes)
		if n-k >= 4 {
			scalar(k, k+4)
			k += 4
		}
	}
	if r := n - k; r > 0 {
		var pv, px, py, ps [4]float64
		for j := range 4 {
			s := k + min(j, r-1)
			pv[j], px[j], py[j], ps[j] = v[s], x[s], y[s], slack[s]
		}
		if plumeSumsAVX2(pv[:], px[:], py[:], ps[:], plumes) == 4 {
			copy(v[k:], pv[:r])
		} else {
			scalar(k, n)
		}
	}
}

// SweepWindows is the per-pair test of an activity sweep for one sensor
// type, on whole 4-pair blocks. For each pair i it brackets the reading as
// c ± dev, with c = base + noise[i] + bias[i] + snapP[i] and dev = cum −
// snapC[i] (added left to right), clamps the bracket into [spanLo,
// spanHi] and, if it reaches below lo[i] or above hi[i], sets bit in
// mask[i]. It returns how many leading pairs it tested (len(mask) rounded
// down to a multiple of 4, or 0 where the kernel is off) and how many of
// them it flagged; the caller tests the rest.
func SweepWindows(mask []uint8, bit uint8, base, cum, spanLo, spanHi float64,
	noise, bias, snapP, snapC, lo, hi []float64) (done int, hits int64) {
	if !useSweepKernel {
		return 0, 0
	}
	n := len(mask) &^ 3
	return n, sweepAVX2(mask[:n], bit, base, cum, spanLo, spanHi,
		noise[:n], bias[:n], snapP[:n], snapC[:n], lo[:n], hi[:n])
}
