package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// kernelModes runs f once with the vector kernels as the host enables them
// and once with all of them forced off, restoring the switches afterwards.
func kernelModes(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	norm, exp, sweep := useNormKernel, useExpKernel, useSweepKernel
	defer func() { useNormKernel, useExpKernel, useSweepKernel = norm, exp, sweep }()
	for _, on := range []bool{true, false} {
		useNormKernel, useExpKernel, useSweepKernel = on && norm, on && exp, on && sweep
		name := "kernels-off"
		if on {
			name = "kernels-host"
			t.Logf("host kernels: polar %v, exp and plume %v, sweep %v", norm, exp, sweep)
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

// plumeSumRef is PlumeSums' per-point contract in scalar Go.
func plumeSumRef(v, x, y, slack float64, plumes []Plume) float64 {
	for _, pl := range plumes {
		dx, dy := x-pl.X, y-pl.Y
		q := (dx*dx + dy*dy) / pl.Den
		if !(q > pl.CullQ && q > pl.LnAmp1+slack) {
			v += pl.Amp * math.Exp(-q)
		}
	}
	return v
}

// TestPlumeSumsMatchesScalar holds PlumeSums to plumeSumRef bit for bit,
// with the kernels as the host enables them and forced off, at lengths on
// both sides of the 4-point group. The points mix near and far plumes,
// cull slacks that keep everything (+Inf, NaN), signed-zero, negative and
// NaN sums, and NaN, infinite and very distant coordinates whose kept
// terms fall outside the kernel's exp range, so groups go back to the
// scalar path; the host run must hand some back and keep most.
func TestPlumeSumsMatchesScalar(t *testing.T) {
	r := NewRNG(21)
	plumes := make([]Plume, 5)
	for j := range plumes {
		sigma, amp := r.Range(15, 30), r.Range(6, 250)
		plumes[j] = Plume{X: r.Range(0, 600), Y: r.Range(0, 600), Den: 2 * sigma * sigma,
			LnAmp1: math.Log(amp) + 1, Amp: amp}
		plumes[j].CullQ = plumes[j].LnAmp1 + 24*math.Ln2
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e5, -3e4}
	kernelModes(t, func(t *testing.T) {
		handed, total := 0, 0
		for _, n := range kernelLengths {
			v, x, y, slack := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range v {
				v[i], x[i], y[i] = r.Range(-50, 500), r.Range(0, 600), r.Range(0, 600)
				slack[i] = r.Range(0, 40)
				switch r.Intn(40) {
				case 0:
					slack[i] = math.Inf(1)
				case 1:
					slack[i] = math.NaN()
				case 2:
					v[i] = math.Copysign(0, -1)
				case 3:
					v[i] = math.NaN()
				case 4:
					x[i] = special[r.Intn(len(special))]
				case 5:
					y[i], slack[i] = special[r.Intn(len(special))], math.Inf(1)
				}
			}
			want := make([]float64, n)
			for i := range v {
				want[i] = plumeSumRef(v[i], x[i], y[i], slack[i], plumes)
			}
			got := append([]float64(nil), v...)
			PlumeSums(got, x, y, slack, plumes, func(lo, hi int) {
				handed += hi - lo
				for i := lo; i < hi; i++ {
					got[i] = plumeSumRef(got[i], x[i], y[i], slack[i], plumes)
				}
			})
			total += n
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n %d point %d (%v, %v) slack %v from %v: got %v (%#x), want %v (%#x)",
						n, i, x[i], y[i], slack[i], v[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		t.Logf("%d of %d points handed to the scalar path", handed, total)
		if useExpKernel && (handed == 0 || handed > total/2) {
			t.Fatalf("kernel handed back %d of %d points", handed, total)
		}
	})
}

// sweepRef is SweepWindows' per-pair contract in scalar Go.
func sweepRef(mask []uint8, bit uint8, base, cum, spanLo, spanHi float64,
	noise, bias, snapP, snapC, lo, hi []float64) (hits int64) {
	for i := range mask {
		dev := cum - snapC[i]
		c := base + noise[i] + bias[i] + snapP[i]
		vlo, vhi := c-dev, c+dev
		if vlo < spanLo {
			vlo = spanLo
		}
		if vhi > spanHi {
			vhi = spanHi
		}
		if vlo < lo[i] || vhi > hi[i] {
			mask[i] |= bit
			hits++
		}
	}
	return hits
}

// TestSweepWindowsMatchesScalar holds SweepWindows (plus a scalar tail) to
// sweepRef, with the kernels as the host enables them and forced off: mask
// bytes that already carry other bits, windows straddling the bracket,
// sentinel windows (±Inf either way round), NaN and infinite operands, and
// brackets at the span's signed-zero edge.
func TestSweepWindowsMatchesScalar(t *testing.T) {
	r := NewRNG(5)
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	kernelModes(t, func(t *testing.T) {
		for _, n := range kernelLengths {
			for _, bit := range []uint8{1, 2, 4, 8} {
				cols := make([][]float64, 6)
				for c := range cols {
					cols[c] = make([]float64, n)
					for i := range cols[c] {
						cols[c][i] = r.Range(-1, 1)
						if r.Intn(50) == 0 {
							cols[c][i] = odd[r.Intn(len(odd))]
						}
					}
				}
				noise, bias, snapP, snapC, lo, hi := cols[0], cols[1], cols[2], cols[3], cols[4], cols[5]
				for i := range lo {
					lo[i], hi[i] = lo[i]+r.Range(-1, 1), hi[i]+r.Range(-1, 1)
					switch r.Intn(20) {
					case 0:
						lo[i], hi[i] = math.Inf(1), math.Inf(-1)
					case 1:
						lo[i], hi[i] = math.Inf(-1), math.Inf(1)
					}
				}
				mask := make([]uint8, n)
				for i := range mask {
					mask[i] = uint8(r.Intn(16)) &^ bit
				}
				want := append([]uint8(nil), mask...)
				base, cum, spanLo, spanHi := r.Range(-1, 1), r.Range(0, 1), 0.0, 2.0
				if bit == 2 {
					spanLo, spanHi = -2, 0
				}
				wantHits := sweepRef(want, bit, base, cum, spanLo, spanHi, noise, bias, snapP, snapC, lo, hi)
				done, hits := SweepWindows(mask, bit, base, cum, spanLo, spanHi, noise, bias, snapP, snapC, lo, hi)
				if useSweepKernel && done != n&^3 || !useSweepKernel && done != 0 {
					t.Fatalf("n %d: swept %d pairs", n, done)
				}
				hits += sweepRef(mask[done:], bit, base, cum, spanLo, spanHi,
					noise[done:], bias[done:], snapP[done:], snapC[done:], lo[done:], hi[done:])
				if hits != wantHits {
					t.Fatalf("n %d bit %d: %d hits, want %d", n, bit, hits, wantHits)
				}
				for i := range mask {
					if mask[i] != want[i] {
						t.Fatalf("n %d bit %d pair %d: mask %#x, want %#x", n, bit, i, mask[i], want[i])
					}
				}
			}
		}
	})
}
