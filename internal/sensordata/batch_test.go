package sensordata

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// kernelModes runs f with EvalNodes and ActiveSweep on sim's vector
// kernels as the host enables them, and again with the scalar path forced.
func kernelModes(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(on bool) { useKernels = on }(useKernels)
	for _, on := range []bool{true, false} {
		useKernels = on
		name := "kernels-off"
		if on {
			name = "kernels-host"
		}
		t.Run(name, f)
	}
}

// sameState compares every per-(node, type) record of two generators bit
// for bit: values, plume snapshots, bound watermarks and stamps, plus the
// evaluation totals. NaNs too must match bit for bit: record stores every
// NaN as math.NaN().
func sameState(t *testing.T, batch, lazy *Generator, where string) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	n := len(lazy.positions)
	for k := range lazy.stamp {
		ty, i := Type(k/n), k%n
		if b, l := batch.values[i][ty], lazy.values[i][ty]; !same(b, l) {
			t.Fatalf("%s: node %d %s: batched value %v, lazy %v", where, i, ty, b, l)
		}
		if b, l := batch.snapPlume[k], lazy.snapPlume[k]; !same(b, l) {
			t.Fatalf("%s: node %d %s: batched plume sum %v, lazy %v", where, i, ty, b, l)
		}
		if b, l := batch.snapCum[k], lazy.snapCum[k]; !same(b, l) {
			t.Fatalf("%s: node %d %s: batched watermark %v, lazy %v", where, i, ty, b, l)
		}
		if batch.stamp[k] != lazy.stamp[k] {
			t.Fatalf("%s: node %d %s: batched stamp %d, lazy %d", where, i, ty, batch.stamp[k], lazy.stamp[k])
		}
	}
	if batch.Evals() != lazy.Evals() {
		t.Fatalf("%s: batched Evals %d, lazy %d", where, batch.Evals(), lazy.Evals())
	}
}

// TestEvalNodesMatchesLazyEval drives two generators with one seed through
// the same epochs. One evaluates random ID lists through EvalNodes (with
// repeats, and lengths on both sides of the chunk size and of the kernel's
// 4-node group), the other reads the same pairs with Value; every record
// must match bit for bit after each batch, with the kernels as the host
// enables them and forced off. Mid-run, one type's base is driven negative
// (culling off) and back, and another type's drift is scaled until its
// plumes turn NaN.
func TestEvalNodesMatchesLazyEval(t *testing.T) {
	for _, c := range []struct {
		n    int
		side float64
	}{{50, 100}, {700, scaleSide}} {
		t.Run(fmt.Sprintf("n%d", c.n), func(t *testing.T) {
			kernelModes(t, func(t *testing.T) {
				pos := refPositionsIn(c.n, 3, c.side)
				batch := NewGenerator(pos, sim.NewRNG(8).Stream("data"))
				lazy := NewGenerator(pos, sim.NewRNG(8).Stream("data"))
				pick := sim.NewRNG(99)
				culled := 0
				lengths := []int{0, 1, 3, 5, 6, 7, evalChunk - 1, evalChunk, evalChunk + 1, 2*evalChunk + 1, c.n}
				for epoch := 1; epoch <= 120; epoch++ {
					both := func(f func(g *Generator)) { f(batch); f(lazy) }
					both(func(g *Generator) { g.Step() })
					switch epoch {
					case 30:
						both(func(g *Generator) { g.ShiftBase(Temperature, -100) })
						if c, _ := culledPairs(batch, Temperature); c != 0 {
							t.Fatalf("%d pairs culled with every base negative", c)
						}
					case 60:
						both(func(g *Generator) { g.ShiftBase(Temperature, 100) })
					case 80:
						// Drift and noise overflow to Inf; plume centres and
						// then bases turn NaN.
						both(func(g *Generator) { g.ScaleDynamics(Light, 1e300); g.ScaleDynamics(Light, 1e300) })
					}
					if epoch == 10 {
						for _, ty := range AllTypes() {
							c, _ := culledPairs(batch, ty)
							culled += c
						}
					}
					for _, ty := range AllTypes() {
						ids := make([]topology.NodeID, lengths[(epoch+int(ty))%len(lengths)])
						for k := range ids {
							ids[k] = topology.NodeID(pick.Intn(c.n))
						}
						batch.EvalNodes(ty, ids)
						for _, id := range ids {
							lazy.Value(id, ty)
						}
						sameState(t, batch, lazy, fmt.Sprintf("epoch %d, %s batch of %d", epoch, ty, len(ids)))
					}
				}
				// The run must have reached the regimes it claims to cover.
				if c.side > 100 && culled == 0 {
					t.Fatal("nothing culled on the large field")
				}
				nan := false
				for _, pl := range batch.fields[Light].plumes {
					nan = nan || math.IsNaN(pl.X) || math.IsNaN(pl.Y)
				}
				if !nan {
					t.Fatal("no Light plume turned NaN; the huge-drift case is not exercised")
				}
			})
		})
	}
}

// TestActiveSweepKernelMatchesScalar sweeps one generator twice per epoch,
// through sim's sweep kernel and through the scalar loop, and requires the
// same mask bytes, worklist and hit and refute counts. Windows are random
// around the readings or across the span, both sentinels and knife edges;
// sizes straddle the kernel's 4-pair block and the worklist's 8-byte word.
func TestActiveSweepKernelMatchesScalar(t *testing.T) {
	defer func(on bool) { useKernels = on }(useKernels)
	for _, n := range []int{1, 3, 4, 5, 8, 13, 64, 130, 1001} {
		g := NewGenerator(refPositions(n, uint64(n)), sim.NewRNG(uint64(n)).Stream("data"))
		rng := sim.NewRNG(uint64(n)).Stream("windows")
		var lo, hi [NumTypes][]float64
		for _, ty := range AllTypes() {
			lo[ty], hi[ty] = make([]float64, n), make([]float64, n)
		}
		masks := [2][]uint8{make([]uint8, n), make([]uint8, n)}
		var dsts [2][]int32
		for epoch := 0; epoch < 50; epoch++ {
			g.Step()
			for _, ty := range AllTypes() {
				for i := range n {
					v, w := g.values[i][ty], rng.Float64()*0.05*ty.SpanWidth()
					switch rng.Intn(10) {
					case 0:
						lo[ty][i], hi[ty][i] = math.Inf(1), math.Inf(-1)
					case 1:
						lo[ty][i], hi[ty][i] = math.Inf(-1), math.Inf(1)
					case 2:
						lo[ty][i], hi[ty][i] = v, v
					default:
						lo[ty][i], hi[ty][i] = v-w, v+w
					}
				}
				if epoch%5 == 0 {
					g.EvalNodes(ty, []topology.NodeID{topology.NodeID(rng.Intn(n))})
				}
			}
			var hits, refutes [2]int64
			for k, on := range []bool{true, false} {
				useKernels = on
				tel := Telemetry{SweepHits: &telemetry.Counter{}, SweepRefutes: &telemetry.Counter{}}
				g.SetTelemetry(tel)
				dsts[k] = g.ActiveSweep(&lo, &hi, masks[k], dsts[k][:0])
				hits[k], refutes[k] = tel.SweepHits.Value(), tel.SweepRefutes.Value()
			}
			if !slices.Equal(masks[0], masks[1]) || !slices.Equal(dsts[0], dsts[1]) || hits[0] != hits[1] || refutes[0] != refutes[1] {
				t.Fatalf("n %d epoch %d: kernel masks %v, worklist %v, %d hits, %d refutes; scalar %v, %v, %d, %d",
					n, epoch, masks[0], dsts[0], hits[0], refutes[0], masks[1], dsts[1], hits[1], refutes[1])
			}
		}
	}
}
