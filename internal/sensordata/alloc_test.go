package sensordata

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
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
// (node, type) pair, the node's actual value this epoch must indeed lie
// inside that window. Runs with full default dynamics so plumes, noise
// and the diurnal cycle all push against the bound, and windows follow
// the protocol's hysteresis rule. It runs with the sweep kernel as the
// host enables it and forced off, on the paper's 100 m square and on two
// squares wide enough for the plume-motion grid (see gridPositions).
func TestSweepNeverLies(t *testing.T) {
	epochs := 400
	if testing.Short() {
		epochs = 100
	}
	kernelModes(t, func(t *testing.T) {
		t.Run("side100", func(t *testing.T) { checkSweepNeverLies(t, refPositions(80, 13), 7, 400) })
		for _, side := range []float64{800, 3000} {
			t.Run(fmt.Sprintf("side%.0f", side), func(t *testing.T) {
				checkSweepNeverLies(t, gridPositions(t, 1500, 13, side), 7, epochs)
			})
		}
	})
}

// gridPositions lays n nodes on a side×side square that must be wide
// enough for the plume-motion grid (see edgePositions).
func gridPositions(t *testing.T, n int, seed uint64, side float64) []topology.Position {
	t.Helper()
	pos := edgePositions(n, seed, side)
	if NewGenerator(pos, sim.NewRNG(seed).Stream("data")).grid == nil {
		t.Fatalf("no plume-motion grid on a %v m square", side)
	}
	return pos
}

// edgePositions lays n nodes uniformly on a side×side square and moves
// node 0 to the square's far corner. Where the field has a plume-motion
// grid, it also moves one node in ten exactly onto grid lines: cell
// corners, and points on a vertical or a horizontal cell edge, the
// square's outer edges included.
func edgePositions(n int, seed uint64, side float64) []topology.Position {
	pos := refPositionsIn(n, seed, side)
	if n == 0 {
		return pos
	}
	pos[0] = topology.Position{X: side, Y: side}
	gr := NewGenerator(pos, sim.NewRNG(seed).Stream("data")).grid
	if gr == nil {
		return pos
	}
	rng := sim.NewRNG(seed).Stream("edges")
	for k := 1; k < n/10; k++ {
		x := min(float64(rng.Intn(gr.nx+1))*gr.cw, side)
		y := min(float64(rng.Intn(gr.ny+1))*gr.ch, side)
		switch k % 3 {
		case 1:
			y = rng.Range(0, side)
		case 2:
			x = rng.Range(0, side)
		}
		pos[k] = topology.Position{X: x, Y: y}
	}
	return pos
}

// checkSweepNeverLies reads, like the protocol, only the pairs the sweep
// flags, so snapshots of quiet pairs grow old and the bound must cover
// every epoch since; a twin generator of the same seed, read in full,
// supplies the true readings.
func checkSweepNeverLies(t *testing.T, pos []topology.Position, seed uint64, epochs int) {
	g := NewGenerator(pos, sim.NewRNG(seed).Stream("data"))
	truth := NewGenerator(pos, sim.NewRNG(seed).Stream("data"))

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
	for epoch := 1; epoch <= epochs; epoch++ {
		g.Step()
		truth.Step()
		dst = g.ActiveSweep(&lo, &hi, mask, dst[:0])
		clear(active)
		for _, i := range dst {
			active[i] = mask[i]
		}
		for _, ty := range AllTypes() {
			wlo, whi := lo[ty], hi[ty]
			delta := ty.SpanWidth() * 0.05
			for i := 0; i < n; i++ {
				v := truth.Value(topology.NodeID(i), ty)
				if active[i]&(1<<uint(ty)) != 0 {
					g.Value(topology.NodeID(i), ty)
				}
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
	if g.Evals() == 0 || g.Evals() >= truth.Evals() {
		t.Fatalf("sweep evaluated %d pairs, the full reads %d: one side of the property is untested",
			g.Evals(), truth.Evals())
	}
	if math.IsNaN(g.Value(0, Temperature)) {
		t.Fatal("NaN escaped the generator")
	}
}

// TestSweepNeverLiesRandomWindows is the same safety property under
// adversarial windows, at network sizes on both sides of the 64-node
// word boundary and on two squares wide enough for the plume-motion grid
// (see gridPositions), with the sweep kernel as the host enables it and
// forced off.
func TestSweepNeverLiesRandomWindows(t *testing.T) {
	epochs := 300
	if testing.Short() {
		epochs = 60
	}
	for _, tc := range []struct {
		n    int
		seed uint64
	}{{1, 1}, {63, 2}, {64, 3}, {130, 4}, {1000, 5}} {
		t.Run(fmt.Sprintf("n%d", tc.n), func(t *testing.T) {
			kernelModes(t, func(t *testing.T) { checkTwoSided(t, refPositions(tc.n, tc.seed), tc.seed, epochs) })
		})
	}
	for _, side := range []float64{800, 3000} {
		t.Run(fmt.Sprintf("wide%.0f", side), func(t *testing.T) {
			pos := gridPositions(t, 1500, 6, side)
			kernelModes(t, func(t *testing.T) { checkTwoSided(t, pos, 6, epochs) })
		})
	}
}

// FuzzSweepNeverLies runs checkSweepRandomWindows on fuzzed fields: the
// square's side (50 m to ~4 km, so with and without the plume-motion
// grid), the node count, the field seed and the seed of the window draws,
// over 40 epochs with the kernels as the host enables them.
func FuzzSweepNeverLies(f *testing.F) {
	f.Add(uint16(100), uint16(80), uint64(1), uint64(1))
	f.Add(uint16(800), uint16(1500), uint64(2), uint64(3))
	f.Add(uint16(3000), uint16(1500), uint64(4), uint64(5))
	f.Add(uint16(720), uint16(7), uint64(6), uint64(7))
	f.Fuzz(func(t *testing.T, side, nodes uint16, seed, windows uint64) {
		pos := edgePositions(1+int(nodes%2000), seed, 50+float64(side%4000))
		checkSweepRandomWindows(t, pos, seed, windows, 40)
	})
}

// checkTwoSided runs checkSweepRandomWindows with one seed for the field
// and the windows, and fails unless the sweep both flagged and refuted
// pairs.
func checkTwoSided(t *testing.T, pos []topology.Position, seed uint64, epochs int) {
	t.Helper()
	if hits, refutes := checkSweepRandomWindows(t, pos, seed, seed, epochs); hits == 0 || refutes == 0 {
		t.Fatalf("sweep outcomes one-sided: %d hits, %d refutes", hits, refutes)
	}
}

// checkSweepRandomWindows drives one generator through random windows:
// hysteresis-style windows of random width around fresh readings, knife
// edges, both sentinels, rewrites of arbitrary nodes between sweeps,
// ground-truth reads that refresh snapshots, and field regime shifts. A
// twin generator of the same seed, read in full, supplies the true
// readings without touching the subject's snapshots. Every epoch:
//   - dst is ascending and mask[i] != 0 holds exactly for its nodes;
//   - every (+Inf, -Inf) pair is flagged and no (-Inf, +Inf) pair is;
//   - every pair the sweep omits reads inside its window;
//   - the sweep examined every pair, and flagged as many as it counted.
//
// seed seeds the field and windowSeed the window draws. It returns the
// sweep's total hits and refutes.
func checkSweepRandomWindows(t *testing.T, pos []topology.Position, seed, windowSeed uint64, epochs int) (hits, refutes int64) {
	n := len(pos)
	g := NewGenerator(pos, sim.NewRNG(seed).Stream("data"))
	truth := NewGenerator(pos, sim.NewRNG(seed).Stream("data"))
	tel := Telemetry{SweepHits: &telemetry.Counter{}, SweepRefutes: &telemetry.Counter{}}
	g.SetTelemetry(tel)
	rng := sim.NewRNG(windowSeed).Stream("windows")
	inf := math.Inf(1)

	// randomWindow draws a window for one (node, type): around v when the
	// reading is known, anywhere in the span otherwise, or a sentinel.
	randomWindow := func(ty Type, v float64, known bool) (float64, float64) {
		lo, hi := ty.Span()
		switch u := rng.Float64(); {
		case u < 0.1:
			return inf, -inf // always active
		case u < 0.2:
			return -inf, inf // never active
		case known:
			w := rng.Float64() * 0.1 * ty.SpanWidth()
			if rng.Bool(0.05) {
				w = 0 // knife edge
			}
			return v - w, v + w
		default:
			c := rng.Range(lo, hi)
			w := rng.Float64() * 0.2 * ty.SpanWidth()
			return c - w, c + w
		}
	}
	var lo, hi [NumTypes][]float64
	for _, ty := range AllTypes() {
		lo[ty], hi[ty] = make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			lo[ty][i], hi[ty][i] = randomWindow(ty, 0, false)
		}
	}

	mask := make([]uint8, n)
	var dst []int32
	var flagged int64
	for epoch := 0; epoch < epochs; epoch++ {
		if epoch > 0 {
			g.Step()
			truth.Step()
		}
		// Stale bits must not survive a sweep.
		for i := range mask {
			mask[i] = 0xff
		}
		dst = g.ActiveSweep(&lo, &hi, mask, dst[:0])

		k := 0
		for i := 0; i < n; i++ {
			listed := k < len(dst) && int(dst[k]) == i
			if listed {
				k++
			}
			if (mask[i] != 0) != listed {
				t.Fatalf("epoch %d: node %d mask %04b but listed=%v in %v", epoch, i, mask[i], listed, dst)
			}
		}
		if k != len(dst) {
			t.Fatalf("epoch %d: active list %v is not ascending node IDs", epoch, dst)
		}
		for _, ty := range AllTypes() {
			bit := uint8(1) << uint(ty)
			for i := 0; i < n; i++ {
				wlo, whi := lo[ty][i], hi[ty][i]
				on := mask[i]&bit != 0
				if on {
					flagged++
				}
				switch {
				case math.IsInf(wlo, 1) && math.IsInf(whi, -1):
					if !on {
						t.Fatalf("epoch %d: always-active node %d %s not flagged", epoch, i, ty)
					}
				case math.IsInf(wlo, -1) && math.IsInf(whi, 1):
					if on {
						t.Fatalf("epoch %d: never-active node %d %s flagged", epoch, i, ty)
					}
				case !on:
					if v := truth.Value(topology.NodeID(i), ty); v < wlo || v > whi {
						t.Fatalf("epoch %d node %d type %s: sweep claimed quiet but value %v escaped [%v, %v]",
							epoch, i, ty, v, wlo, whi)
					}
				}
			}
		}
		if hits, refutes := tel.SweepHits.Value(), tel.SweepRefutes.Value(); hits != flagged ||
			hits+refutes != int64(epoch+1)*int64(n)*int64(NumTypes) {
			t.Fatalf("epoch %d: telemetry %d hits + %d refutes, want %d hits of %d pairs",
				epoch, hits, refutes, flagged, int64(epoch+1)*int64(n)*int64(NumTypes))
		}

		// Sample the active pairs and re-arm their windows, as the
		// protocol does.
		for _, ai := range dst {
			i := int(ai)
			for _, ty := range AllTypes() {
				if mask[i]&(1<<uint(ty)) == 0 {
					continue
				}
				v := g.Value(topology.NodeID(i), ty)
				if rng.Bool(0.9) {
					lo[ty][i], hi[ty][i] = randomWindow(ty, v, true)
				}
			}
		}
		// Ground-truth style reads of arbitrary nodes refresh snapshots.
		for k := rng.Intn(4); k > 0; k-- {
			g.Value(topology.NodeID(rng.Intn(n)), AllTypes()[rng.Intn(int(NumTypes))])
		}
		// Rewrites of any node's windows between sweeps, and regime shifts.
		switch u := rng.Float64(); {
		case u < 0.3:
			for k := 1 + rng.Intn(3); k > 0; k-- {
				i := rng.Intn(n)
				for _, ty := range AllTypes() {
					lo[ty][i], hi[ty][i] = randomWindow(ty, 0, false)
				}
			}
		case u < 0.33:
			for _, ty := range AllTypes() {
				for i := 0; i < n; i++ {
					if rng.Bool(0.3) {
						lo[ty][i], hi[ty][i] = randomWindow(ty, 0, false)
					}
				}
			}
		case u < 0.345:
			ty, d := AllTypes()[rng.Intn(int(NumTypes))], rng.Range(-0.1, 0.1)
			g.ShiftBase(ty, d*ty.SpanWidth())
			truth.ShiftBase(ty, d*ty.SpanWidth())
		case u < 0.36:
			ty, f := AllTypes()[rng.Intn(int(NumTypes))], rng.Range(0.3, 3)
			g.ScaleDynamics(ty, f)
			truth.ScaleDynamics(ty, f)
		}
	}
	return tel.SweepHits.Value(), tel.SweepRefutes.Value()
}
