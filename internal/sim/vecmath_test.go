package sim

import (
	"math"
	"testing"
)

// kernelModes runs f once with the vector kernels as the host enables them
// and once with all of them forced off, restoring the switches afterwards.
func kernelModes(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	norm, plume, sweep := useNormKernel, usePlumeKernel, useSweepKernel
	defer func() { useNormKernel, usePlumeKernel, useSweepKernel = norm, plume, sweep }()
	for _, on := range []bool{true, false} {
		useNormKernel, usePlumeKernel, useSweepKernel = on && norm, on && plume, on && sweep
		name := "kernels-off"
		if on {
			name = "kernels-host"
			t.Logf("host kernels: polar %v, plume %v, sweep %v", norm, plume, sweep)
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

// plumeSumRef is PlumeSum's contract written out.
func plumeSumRef(v, x, y, slack float64, plumes []Plume) float64 {
	for _, pl := range plumes {
		dx, dy := x-pl.X, y-pl.Y
		q := (dx*dx + dy*dy) / pl.Den
		if !(q > pl.CullQ && q > pl.LnAmp1+slack) {
			v += pl.Amp * Exp(-q)
		}
	}
	return v
}

// TestPlumeSumsMatchesScalar holds PlumeSums to plumeSumRef bit for bit,
// with the kernels as the host enables them and forced off, at lengths on
// both sides of the 4-point group. The points mix near and far plumes,
// cull slacks that keep everything (+Inf, NaN), signed-zero, negative and
// NaN sums, and NaN, infinite and very distant coordinates whose kept
// terms fall outside the kernel's exp range, so groups go back to
// PlumeSum; where the kernel is on, it must refuse some 4-point groups and
// take most.
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
		refused, total := 0, 0
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
			PlumeSums(got, x, y, slack, plumes)
			if usePlumeKernel {
				for k := 0; k+4 <= n; k += 4 {
					g := append([]float64(nil), v[k:k+4]...)
					refused += 4 - plumeSumsAVX2(g, x[k:], y[k:], slack[k:], plumes)
				}
				total += n &^ 3
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n %d point %d (%v, %v) slack %v from %v: got %v (%#x), want %v (%#x)",
						n, i, x[i], y[i], slack[i], v[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		if usePlumeKernel {
			t.Logf("the kernel refused %d of %d points in whole groups", refused, total)
			if refused == 0 || refused > total/2 {
				t.Fatalf("kernel refused %d of %d points", refused, total)
			}
		}
	})
}

// sweepRef is SweepWindows' per-pair contract in scalar Go.
func sweepRef(mask []uint8, bit uint8, base, cum, spanLo, spanHi float64,
	noise, bias, snapP, snapC, lo, hi []float64, cell []int32, cellCum []float64) (hits int64) {
	for i := range mask {
		dev := cum - snapC[i]
		if cell != nil {
			dev = cum + cellCum[cell[i]] - snapC[i]
		}
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
// sweepRef on random columns with NaN, infinite and signed-zero entries,
// sentinel windows and every mask bit, without and with a cell column
// whose indices reach both ends of cellCum.
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
				var cell []int32
				var cellCum []float64
				if bit >= 4 {
					cellCum = make([]float64, 1+r.Intn(40))
					for c := range cellCum {
						cellCum[c] = r.Range(0, 0.5)
					}
					cell = make([]int32, n)
					for i := range cell {
						cell[i] = int32(r.Intn(len(cellCum)))
						if i%7 == 0 {
							cell[i] = int32(len(cellCum) - 1)
						}
					}
				}
				mask := make([]uint8, n)
				for i := range mask {
					mask[i] = uint8(r.Intn(16)) &^ bit
				}
				want := append([]uint8(nil), mask...)
				base, cum, spanLo, spanHi := r.Range(-1, 1), r.Range(0, 1), 0.0, 2.0
				if bit == 2 || bit == 8 {
					spanLo, spanHi = -2, 0
				}
				wantHits := sweepRef(want, bit, base, cum, spanLo, spanHi, noise, bias, snapP, snapC, lo, hi, cell, cellCum)
				done, hits := SweepWindows(mask, bit, base, cum, spanLo, spanHi, noise, bias, snapP, snapC, lo, hi, cell, cellCum)
				if useSweepKernel && done != n&^3 || !useSweepKernel && done != 0 {
					t.Fatalf("n %d: swept %d pairs", n, done)
				}
				var tail []int32
				if cell != nil {
					tail = cell[done:]
				}
				hits += sweepRef(mask[done:], bit, base, cum, spanLo, spanHi,
					noise[done:], bias[done:], snapP[done:], snapC[done:], lo[done:], hi[done:], tail, cellCum)
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
