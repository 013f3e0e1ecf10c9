package sensordata

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// sameState compares every per-(node, type) record of two generators bit
// for bit: values, plume snapshots, bound watermarks and stamps, plus the
// evaluation totals. Any NaN matches any NaN: which operand's payload a
// NaN sum carries depends on the operand order the compiler picks.
func sameState(t *testing.T, batch, lazy *Generator, where string) {
	t.Helper()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
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
// repeats, and lengths on both sides of the chunk size), the other reads
// the same pairs with Value; every record must match bit for bit after
// each batch. Mid-run, one type's base is driven negative (culling off)
// and back, and another type's drift is scaled until its plumes turn NaN.
func TestEvalNodesMatchesLazyEval(t *testing.T) {
	for _, c := range []struct {
		n    int
		side float64
	}{{50, 100}, {700, scaleSide}} {
		t.Run(fmt.Sprintf("n%d", c.n), func(t *testing.T) {
			pos := refPositionsIn(c.n, 3, c.side)
			batch := NewGenerator(pos, sim.NewRNG(8).Stream("data"))
			lazy := NewGenerator(pos, sim.NewRNG(8).Stream("data"))
			pick := sim.NewRNG(99)
			culled := 0
			lengths := []int{0, 1, 3, evalChunk - 1, evalChunk, evalChunk + 1, 2*evalChunk + 1, c.n}
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
				nan = nan || math.IsNaN(pl.x) || math.IsNaN(pl.y)
			}
			if !nan {
				t.Fatal("no Light plume turned NaN; the huge-drift case is not exercised")
			}
		})
	}
}
