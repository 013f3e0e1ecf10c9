package sim

// Vector kernels. On amd64 hosts with AVX2 three assembly kernels take the
// hot loops of the field model, each a lane-for-lane replay of the scalar
// Go it replaces, so every output bit is unchanged:
//
//   - the polar transform u·√(−2·ln s / s) behind NormFloat64s replays
//     math.Log's amd64 assembly, a fixed sequence of plain IEEE operations
//     that never depends on the CPU's features;
//   - PlumeSums computes Gaussian plume terms four points at a time: the
//     squared distance over 2σ², both cull tests, and the kept terms
//     through Exp's steps, fused where Exp calls math.FMA, so it also
//     needs FMA;
//   - SweepWindows reconstructs the activity sweep's bracket of a reading
//     and tests it against its window, four pairs at a time, gathering
//     each pair's cell term where the sweep has a grid.
//
// Every other lane operation is a plain IEEE add, subtract, multiply,
// divide, compare or blend, so each lane rounds exactly as the scalar Go
// expression it replaces. Elsewhere, and wherever a kernel is off, the
// scalar loops run. The switches are variables only so that tests can
// force the kernels off.
var (
	useNormKernel  = haveAVX2
	usePlumeKernel = haveAVX2 && haveFMA
	useSweepKernel = haveAVX2
)

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

// PlumeSum returns v plus the terms Amp·Exp(−q) of plumes at (x, y), in
// plume order, skipping each term that a sum with cull slack slack drops.
// Products are rounded explicitly, so no target fuses them. It is the
// field's one scalar plume sum, and PlumeSums' kernel replays it.
func PlumeSum(v, x, y, slack float64, plumes []Plume) float64 {
	for i := range plumes {
		pl := &plumes[i]
		dx, dy := x-pl.X, y-pl.Y
		q := (float64(dx*dx) + float64(dy*dy)) / pl.Den
		if !(q > pl.CullQ && q > pl.LnAmp1+slack) {
			v += float64(pl.Amp * Exp(-q))
		}
	}
	return v
}

// PlumeSums sets each v[i] to PlumeSum(v[i], x[i], y[i], slack[i],
// plumes). The kernel takes four points at a time (a short tail padded
// with copies of its last point). A group with a kept term whose exponent
// argument lies outside [−708, 0] (NaN included, where Exp has its special
// cases), and every point where the kernel is off, goes through PlumeSum.
func PlumeSums(v, x, y, slack []float64, plumes []Plume) {
	n := len(v)
	x, y, slack = x[:n], y[:n], slack[:n]
	scalar := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] = PlumeSum(v[i], x[i], y[i], slack[i], plumes)
		}
	}
	if !usePlumeKernel {
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
// c ± dev, with c = base + noise[i] + bias[i] + snapP[i] (added left to
// right) and dev = cum − snapC[i], or, where cell is non-nil, dev = (cum +
// cellCum[cell[i]]) − snapC[i]. It clamps the bracket into [spanLo,
// spanHi] and, if it reaches below lo[i] or above hi[i], sets bit in
// mask[i]. It returns how many leading pairs it tested (len(mask) rounded
// down to a multiple of 4, or 0 where the kernel is off) and how many of
// them it flagged; the caller tests the rest. Every cell[i] must index
// cellCum.
func SweepWindows(mask []uint8, bit uint8, base, cum, spanLo, spanHi float64,
	noise, bias, snapP, snapC, lo, hi []float64, cell []int32, cellCum []float64) (done int, hits int64) {
	if !useSweepKernel {
		return 0, 0
	}
	n := len(mask) &^ 3
	if cell != nil {
		cell = cell[:n]
	}
	return n, sweepAVX2(mask[:n], bit, base, cum, spanLo, spanHi,
		noise[:n], bias[:n], snapP[:n], snapC[:n], lo[:n], hi[:n], cell, cellCum)
}
