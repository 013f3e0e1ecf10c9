package sensordata

import (
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
//     so half the network is active every epoch.
func BenchmarkSweep(b *testing.B) {
	b.Run("quiescent-100k", func(b *testing.B) { benchSweep(b, 100000, false) })
	b.Run("half-active-25k", func(b *testing.B) { benchSweep(b, 25000, true) })
}

func benchSweep(b *testing.B, n int, halfActive bool) {
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
			if halfActive && i%2 == 0 {
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

// BenchmarkGeneratorStep times one epoch of field stepping at 25 000
// nodes: plume drift plus one AR(1) noise draw per (node, type), with no
// field evaluation.
func BenchmarkGeneratorStep(b *testing.B) {
	g := NewGenerator(refPositions(25000, 1), sim.NewRNG(1).Stream("data"))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		g.Step()
	}
}
