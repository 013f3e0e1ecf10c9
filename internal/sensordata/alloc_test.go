package sensordata

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestStepSweepValueAllocFree pins the generator's steady-state allocation
// ceiling at zero: advancing an epoch, running the quiescence sweep for
// every type and lazily evaluating a handful of nodes must not allocate
// once warm — these run every epoch at every network size.
func TestStepSweepValueAllocFree(t *testing.T) {
	pos := refPositions(200, 5)
	g := NewGenerator(pos, sim.NewRNG(9).Stream("data"))

	n := len(pos)
	var lo, hi [NumTypes][]float64
	for ty := range lo {
		lo[ty], hi[ty] = make([]float64, n), make([]float64, n)
		for i := range lo[ty] {
			// Mid-width windows so the sweep exercises both outcomes.
			lo[ty][i], hi[ty][i] = 10, 20
		}
	}
	mask := make([]uint8, n)
	dst := make([]int32, 0, n)

	// Warm up lazy state and the sweep scratch.
	for e := 0; e < 3; e++ {
		g.Step()
		dst = g.ActiveSweep(&lo, &hi, mask, dst[:0])
		g.Value(0, Temperature)
	}

	allocs := testing.AllocsPerRun(200, func() {
		g.Step()
		dst = g.ActiveSweep(&lo, &hi, mask, dst[:0])
		for i := 0; i < 8; i++ {
			g.Value(topology.NodeID(i*17%len(pos)), Humidity)
		}
	})
	if allocs != 0 {
		t.Fatalf("Step+ActiveSweep+Value allocate %.1f objects per epoch, want 0", allocs)
	}
}

// TestQuiescentWindowZeroEvaluations is the gating property test: with a
// static field (no drift, no noise, no diurnal cycle) every node's value
// is provably frozen, so after the first evaluation a window of epochs
// must perform zero field evaluations and the sweep must return no active
// nodes.
func TestQuiescentWindowZeroEvaluations(t *testing.T) {
	pos := refPositions(64, 3)
	g := NewGenerator(pos, sim.NewRNG(2).Stream("data"))
	for _, ty := range AllTypes() {
		p := g.Params(ty)
		p.DriftStep = 0
		p.NoiseSigma = 0
		p.DiurnalAmp = 0
		g.SetParams(ty, p)
	}

	n := len(pos)
	mask := make([]uint8, n)
	dst := make([]int32, 0, n)

	// One pass to establish values and hysteresis-style windows around
	// them, exactly as the protocol would after the first reading. The
	// window is deliberately razor thin: with a static field even ±1e-6
	// is provably safe.
	var lo, hi [NumTypes][]float64
	for _, ty := range AllTypes() {
		lo[ty], hi[ty] = make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			v := g.Value(topology.NodeID(i), ty)
			lo[ty][i], hi[ty][i] = v-1e-6, v+1e-6
		}
	}

	start := g.Evals()
	for epoch := 0; epoch < 500; epoch++ {
		g.Step()
		if act := g.ActiveSweep(&lo, &hi, mask, dst[:0]); len(act) != 0 {
			t.Fatalf("epoch %d: static field flagged %d active nodes (first %d, mask %04b)",
				epoch, len(act), act[0], mask[act[0]])
		}
	}
	if got := g.Evals(); got != start {
		t.Fatalf("static field still evaluated %d times over the window", got-start)
	}
}

// TestSweepNeverLies is the safety property: whenever the sweep omits a
// node, the node's actual value this epoch must indeed lie inside its
// window. Runs with full default dynamics so plumes, noise and the
// diurnal cycle all push against the bound.
func TestSweepNeverLies(t *testing.T) {
	pos := refPositions(80, 13)
	g := NewGenerator(pos, sim.NewRNG(7).Stream("data"))

	n := len(pos)
	active := make([]uint8, n) // per node: active type bits this epoch
	mask := make([]uint8, n)
	dst := make([]int32, 0, n)

	// Hysteresis-style windows around the initial readings (δ = 5% of
	// span, like the paper's default), re-centred whenever a value
	// escapes — exactly the protocol's rule.
	var lo, hi [NumTypes][]float64
	for _, ty := range AllTypes() {
		lo[ty], hi[ty] = make([]float64, n), make([]float64, n)
		delta := ty.SpanWidth() * 0.05
		for i := 0; i < n; i++ {
			v := g.Value(topology.NodeID(i), ty)
			lo[ty][i], hi[ty][i] = v-delta, v+delta
		}
	}
	for epoch := 1; epoch <= 400; epoch++ {
		g.Step()
		dst = g.ActiveSweep(&lo, &hi, mask, dst[:0])
		clear(active)
		for _, i := range dst {
			active[i] = mask[i]
		}
		for _, ty := range AllTypes() {
			wlo, whi := lo[ty], hi[ty]
			delta := ty.SpanWidth() * 0.05
			for i := 0; i < n; i++ {
				v := g.Value(topology.NodeID(i), ty)
				if active[i]&(1<<uint(ty)) == 0 && (v < wlo[i] || v > whi[i]) {
					t.Fatalf("epoch %d node %d type %s: sweep claimed quiet but value %v escaped [%v, %v]",
						epoch, i, ty, v, wlo[i], whi[i])
				}
				if v < wlo[i] || v > whi[i] {
					// Re-centre, as the hysteresis rule would.
					wlo[i], whi[i] = v-delta, v+delta
				}
			}
		}
	}
	if g.Evals() == 0 {
		t.Fatal("property test never evaluated anything")
	}
	if math.IsNaN(g.Value(0, Temperature)) {
		t.Fatal("NaN escaped the generator")
	}
}
