package sim

import "math"

// Exp returns e^x exactly as the avxfma path of math.Exp's amd64 assembly
// (archExp in exp_amd64.s) rounds it, on every host. math.Exp takes that
// path only on amd64 CPUs with AVX and FMA; elsewhere, or under
// GODEBUG=cpu.fma=off, it rounds a share of its results differently. Here
// math.FMA stands exactly where the assembly fuses, and every other
// product is rounded on its own by an explicit conversion, so no target
// can fuse it. The plume kernel's EXP4 runs the same steps four lanes at a
// time.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case x != x || x > math.MaxFloat64: // NaN, +Inf
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// k := round(x·log2(e)), ties to even as CVTSD2SL rounds. Below −1075
	// the result underflows to +0; that covers −Inf and the arguments
	// CVTSD2SL cannot convert.
	t := math.RoundToEven(float64(log2e * x))
	if t < -1075 {
		return 0
	}
	k := int(t)
	kf := float64(k) // +0 for k = 0, as CVTSL2SD gives
	r := math.FMA(-kf, ln2U, x)
	r = math.FMA(-kf, ln2L, r)
	r = float64(r * 0.0625)
	// The Taylor series in Horner form, every step fused.
	p := math.FMA(r, 2.4801587301587301587e-5, 1.9841269841269841270e-4)
	p = math.FMA(r, p, 1.3888888888888888889e-3)
	p = math.FMA(r, p, 8.3333333333333333333e-3)
	p = math.FMA(r, p, 4.1666666666666666667e-2)
	p = math.FMA(r, p, 1.6666666666666666667e-1)
	p = math.FMA(r, p, 0.5)
	p = math.FMA(r, p, 1)
	r = float64(r * p)
	// Four squarings r·(r + 2), the last one fused with + 1.
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = math.FMA(r+2, r, 1)
	// r·2^k, with the biased exponent b = k + 1023 >= −52. A subnormal
	// result takes two steps, 2^(k+1022) and then 2^−1022.
	b := k + 1023
	switch {
	case b <= 0:
		r = float64(r * math.Float64frombits(uint64(b+0x3fe)<<52))
		b = 1
	case b >= 0x7ff:
		return math.Inf(1)
	}
	return float64(r * math.Float64frombits(uint64(b)<<52))
}
