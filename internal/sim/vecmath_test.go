package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// kernelModes runs f once with the vector kernels as the host enables them
// and once with both forced off, restoring the switches afterwards.
func kernelModes(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	norm, exp := useNormKernel, useExpKernel
	defer func() { useNormKernel, useExpKernel = norm, exp }()
	for _, on := range []bool{true, false} {
		useNormKernel, useExpKernel = on && norm, on && exp
		name := "kernels-off"
		if on {
			name = "kernels-host"
			t.Logf("host kernels: polar %v, exp %v", norm, exp)
		}
		t.Run(name, f)
	}
}

// kernelLengths straddles the 4-lane and 256-pair block boundaries and
// reaches network scale.
var kernelLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 25000}

// TestPolarScalesEdgeInputs feeds the polar transform the extreme radii
// the polar method can produce (2⁻¹⁰⁴, the smallest non-zero u² + v², and
// the largest double below 1) and mantissas on both sides of log's √2/2
// reduction boundary, at several exponents, in every lane position.
func TestPolarScalesEdgeInputs(t *testing.T) {
	hs := math.Sqrt2 / 2
	s := []float64{0x1p-104, math.Nextafter(1, 0), 0.5, math.Nextafter(0.5, 1)}
	for _, e := range []int{0, -1, -2, -30, -103} {
		for d := -3; d <= 3; d++ {
			m := math.Float64frombits(uint64(int64(math.Float64bits(hs)) + int64(d)))
			s = append(s, math.Ldexp(m, e))
		}
	}
	kernelModes(t, func(t *testing.T) {
		for shift := range 4 {
			ss := append(make([]float64, shift), s...)
			for i := range shift {
				ss[i] = 0.25
			}
			u := make([]float64, len(ss))
			for i := range u {
				u[i] = 1 - 2*float64(i%3)/3
			}
			got := append([]float64(nil), u...)
			polarScales(got, ss)
			for i := range got {
				if want := polarScale(u[i], ss[i]); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("shift %d: s = %v (%#x): got %v, want %v", shift, ss[i], math.Float64bits(ss[i]), got[i], want)
				}
			}
		}
	})
}

// TestExpsMatchesMathExp checks Exps against math.Exp bit for bit, with the
// exp kernel on and off: on random arguments across the kernel's range and
// beyond it (where blocks fall back), and on the edge inputs in every lane
// position so that each lands in a kernel block and in a fallback block.
func TestExpsMatchesMathExp(t *testing.T) {
	edges := []float64{-708, -707.99, 0, math.Copysign(0, -1), -745, math.Inf(-1), math.NaN(),
		-709, -1e-300, 5e-324, 1, 710, math.Inf(1), -0.5}
	kernelModes(t, func(t *testing.T) {
		check := func(name string, x []float64) {
			t.Helper()
			got := append([]float64(nil), x...)
			Exps(got)
			for i, v := range x {
				want := math.Exp(v)
				if math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
					t.Fatalf("%s: Exp(%v) = %v, want %v", name, v, got[i], want)
				}
			}
		}
		r := NewRNG(11)
		for _, n := range kernelLengths {
			x := make([]float64, n)
			for i := range x {
				x[i] = -r.Range(0, 40)
				if i%97 == 13 {
					x[i] = -r.Range(700, 760)
				}
			}
			check(fmt.Sprintf("n%d", n), x)
		}
		for _, v := range edges {
			for pos := range 4 {
				x := []float64{-1, -2, -3, -4, -5, -6, -7, -8}
				x[pos] = v
				x[4+pos] = v
				check(fmt.Sprintf("edge %v lane %d", v, pos), x)
			}
		}
	})
}

// The two paths of math.Exp's amd64 assembly (exp_amd64.s), replayed in Go
// step by step: expFMAPath with math.FMA where the assembly fuses, expPlainPath
// with every product rounded. Neither depends on the host.
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

var expTaylor = [...]float64{2.4801587301587301587e-5, 1.9841269841269841270e-4,
	1.3888888888888888889e-3, 8.3333333333333333333e-3, 4.1666666666666666667e-2,
	1.6666666666666666667e-1, 0.5, 1.0}

func expPath(x float64, fused bool) float64 {
	fma := func(a, b, c float64) float64 {
		if fused {
			return math.FMA(a, b, c)
		}
		return float64(a*b) + c
	}
	k := math.RoundToEven(x * expLog2e)
	x = fma(-k, expLn2U, x)
	x = fma(-k, expLn2L, x)
	x *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = fma(p, x, c)
	}
	x *= p
	for range 3 {
		x *= x + 2
	}
	x = fma(x+2, x, 1)
	return x * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// TestExpProbeSeparatesPaths proves the probe's premise: on every probe
// input the FMA and non-FMA paths of math.Exp differ, so a host whose
// math.Exp takes the non-FMA path fails the probe. Both replicas are then
// checked against the host: math.Exp must agree with one of them on a
// sweep of eval's range (on amd64, where it is that assembly), and the exp
// probe passes exactly when it agrees with the FMA one.
func TestExpProbeSeparatesPaths(t *testing.T) {
	for _, x := range expProbeInputs {
		if expPath(x, true) == expPath(x, false) {
			t.Fatalf("probe input %v: both paths give %v", x, expPath(x, true))
		}
	}
	fmaHost, plainHost := true, true
	for i := range 200000 {
		x := -40 * float64(i) / 200000
		m := math.Exp(x)
		fmaHost = fmaHost && m == expPath(x, true)
		plainHost = plainHost && m == expPath(x, false)
	}
	t.Logf("host math.Exp: FMA path %v, non-FMA path %v", fmaHost, plainHost)
	if haveAVX2 && haveFMA && expProbe() != fmaHost {
		t.Fatalf("probe %v, but math.Exp matches the FMA path: %v", expProbe(), fmaHost)
	}
	if runtime.GOARCH == "amd64" && !fmaHost && !plainHost {
		t.Fatal("math.Exp matches neither replica of its amd64 assembly")
	}
}

// BenchmarkExps times Exps over 4096 arguments spread across [−40, 0], the
// range field evaluation feeds it, with the exp kernel as the host enables
// it and forced off.
func BenchmarkExps(b *testing.B) {
	src := make([]float64, 4096)
	r := NewRNG(1)
	for i := range src {
		src[i] = -r.Range(0, 40)
	}
	x := make([]float64, len(src))
	for _, c := range []struct {
		name string
		on   bool
	}{{"kernel", true}, {"kernel-off", false}} {
		b.Run(c.name, func(b *testing.B) {
			defer func(on bool) { useExpKernel = on }(useExpKernel)
			useExpKernel = useExpKernel && c.on
			for range b.N {
				copy(x, src)
				Exps(x)
			}
		})
	}
}
