package sensordata

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkSweep times one epoch of the activity sweep on a static field,
// so the numbers isolate the sweep from field stepping. Every call is a
// full scan of every (node, type) pair:
//
//   - quiescent-100k: every pair sits in a window around its reading, so
//     nothing is active and an epoch costs the bare 400k-pair scan;
//   - half-active-25k: every other node rides the always-active sentinel,
//     so half the network is active every epoch;
//   - random-active-25k: a random half of the (node, type) pairs ride the
//     sentinel, so no branch on a pair's or a node's outcome predicts.
//
// Each runs with the sweep kernel as the host enables it and forced off.
func BenchmarkSweep(b *testing.B) {
	for _, c := range []struct {
		name   string
		n      int
		active func(i int, ty Type, r *sim.RNG) bool
	}{
		{"quiescent-100k", 100000, func(int, Type, *sim.RNG) bool { return false }},
		{"half-active-25k", 25000, func(i int, _ Type, _ *sim.RNG) bool { return i%2 == 0 }},
		{"random-active-25k", 25000, func(_ int, _ Type, r *sim.RNG) bool { return r.Bool(0.5) }},
	} {
		b.Run(c.name, func(b *testing.B) { benchSweep(b, c.n, c.active, true) })
		b.Run(c.name+"/kernel-off", func(b *testing.B) { benchSweep(b, c.n, c.active, false) })
	}
}

func benchSweep(b *testing.B, n int, active func(i int, ty Type, r *sim.RNG) bool, kernels bool) {
	defer func(on bool) { useKernels = on }(useKernels)
	useKernels = kernels
	r := sim.NewRNG(2)
	g := NewGenerator(refPositions(n, 1), sim.NewRNG(1).Stream("data"))
	for _, ty := range AllTypes() {
		p := g.Params(ty)
		p.DriftStep, p.NoiseSigma, p.DiurnalAmp = 0, 0, 0
		g.SetParams(ty, p)
	}
	var lo, hi [NumTypes][]float64
	for _, ty := range AllTypes() {
		lo[ty], hi[ty] = make([]float64, n), make([]float64, n)
		delta := 0.05 * ty.SpanWidth()
		for i := 0; i < n; i++ {
			if active(i, ty, r) {
				lo[ty][i], hi[ty][i] = math.Inf(1), math.Inf(-1)
				continue
			}
			v := g.Value(topology.NodeID(i), ty)
			lo[ty][i], hi[ty][i] = v-delta, v+delta
		}
	}
	mask := make([]uint8, n)
	dst := g.ActiveSweep(&lo, &hi, mask, make([]int32, 0, n))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		// With every dynamic zeroed, Step would change nothing the sweep
		// reads but the epoch, so only the epoch advances.
		g.epoch++
		dst = g.ActiveSweep(&lo, &hi, mask, dst[:0])
	}
	b.ReportMetric(float64(len(dst)), "active/op")
}

// BenchmarkGeneratorStep times one epoch of field stepping: plume drift
// plus one AR(1) noise draw per (node, type), with no field evaluation. At
// 25 000 nodes the noise draws dominate; at the paper's 50 the 15 plumes'
// drift draws are a visible share.
func BenchmarkGeneratorStep(b *testing.B) {
	for _, n := range []int{50, 25000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g := NewGenerator(refPositions(n, 1), sim.NewRNG(1).Stream("data"))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				g.Step()
			}
		})
	}
}
