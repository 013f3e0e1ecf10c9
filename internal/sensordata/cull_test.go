package sensordata

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// scaleSide is the area side scenario.ScaleDefault gives 2000 nodes: the
// paper's density stretched to 100·√(2000/50) m.
var scaleSide = 100 * math.Sqrt(2000.0/50)

// culledPairs counts, for the generator's current epoch, the (node, plume)
// pairs eval skips and all pairs, for one type.
func culledPairs(g *Generator, ty Type) (culled, total int) {
	f := g.fields[ty]
	day := f.day(g.epoch)
	for i, pos := range g.positions {
		slack := cullSlack(f.pairBase(i, day))
		for j := range f.plumes {
			if _, keep := f.plumes[j].expArg(pos, slack); !keep {
				culled++
			}
			total++
		}
	}
	return culled, total
}

// checkAgainstEager reads every (node, type) and compares the clamped value
// and the recorded plume component with the eager reference bit for bit.
func checkAgainstEager(t *testing.T, g *Generator, ref *eagerRef) {
	t.Helper()
	n := len(g.positions)
	for _, ty := range AllTypes() {
		for i := 0; i < n; i++ {
			got := g.Value(topology.NodeID(i), ty)
			if want := ref.values[i][ty]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("epoch %d node %d type %s: value %v, eager %v", g.epoch, i, ty, got, want)
			}
			got = g.snapPlume[int(ty)*n+i]
			if want := ref.plume[i][ty]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("epoch %d node %d type %s: plume sum %v, eager %v", g.epoch, i, ty, got, want)
			}
		}
	}
}

// TestCulledEvalMatchesEagerReference pins far-plume culling to the
// uncut eager sum on a field large enough that most (node, plume) pairs
// are culled: ScaleDefault(2000)'s 632 m square, every node read every
// epoch.
func TestCulledEvalMatchesEagerReference(t *testing.T) {
	pos := refPositionsIn(2000, 21, scaleSide)
	g := NewGenerator(pos, sim.NewRNG(5).Stream("data"))
	ref := newEagerRef(pos, sim.NewRNG(5).Stream("data"))
	culled, total := 0, 0
	for epoch := 0; epoch < 300; epoch++ {
		if epoch > 0 {
			g.Step()
			ref.step()
		}
		if epoch%50 == 0 {
			for _, ty := range AllTypes() {
				c, n := culledPairs(g, ty)
				culled, total = culled+c, total+n
			}
		}
		checkAgainstEager(t, g, ref)
	}
	if 2*culled <= total {
		t.Fatalf("only %d of %d (node, plume) pairs culled; the test no longer exercises the cull", culled, total)
	}
	t.Logf("%d of %d sampled (node, plume) pairs culled (%.0f%%)", culled, total, 100*float64(culled)/float64(total))
}

// TestCullOffForNonPositiveBase drives one type's base negative with
// ShiftBase, where culling must switch off (a negative base gives no
// lower bound on the partial sums), then back up, comparing with the
// eager reference throughout.
func TestCullOffForNonPositiveBase(t *testing.T) {
	pos := refPositionsIn(500, 8, scaleSide)
	g := NewGenerator(pos, sim.NewRNG(6).Stream("data"))
	ref := newEagerRef(pos, sim.NewRNG(6).Stream("data"))
	shift := func(delta float64) {
		g.ShiftBase(Temperature, delta)
		ref.fields[Temperature].params.Base += delta
		ref.compute()
	}
	for epoch := 1; epoch <= 150; epoch++ {
		g.Step()
		ref.step()
		switch epoch {
		case 40:
			shift(-100)
			if c, _ := culledPairs(g, Temperature); c != 0 {
				t.Fatalf("%d pairs culled with every base negative", c)
			}
			if c, _ := culledPairs(g, Humidity); c == 0 {
				t.Fatal("no pair of an unshifted type culled")
			}
		case 100:
			shift(100)
			if c, _ := culledPairs(g, Temperature); c == 0 {
				t.Fatal("culling did not resume once the base was positive again")
			}
		}
		checkAgainstEager(t, g, ref)
	}
}

// TestNegligibleNeverChangesSum is the skip predicate's property test:
// across bases of every normal exponent (plus zero, subnormals, negatives
// and non-finite values) and amplitudes and exponents drawn around the
// threshold, a skipped term never changes base, nor any larger sum.
func TestNegligibleNeverChangesSum(t *testing.T) {
	rng := sim.NewRNG(17)
	special := []float64{0, math.Copysign(0, -1), 5e-324, 0x1p-1023, 0x1p-1000,
		-1, -0x1p-1000, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
	skipped, tried := 0, 0
	for k := 0; k < 400000; k++ {
		var base float64
		if k%16 == 0 {
			base = special[rng.Intn(len(special))]
		} else {
			// Any normal exponent, any mantissa.
			base = math.Ldexp(1+rng.Float64(), rng.Intn(2046)-1022)
		}
		amp := math.Exp(rng.Range(-20, 40))
		lnAmp := math.Log(amp)
		// Centre q on the threshold (clamped to what Exp can see) and jitter
		// it by a few nats either side.
		e := int(math.Float64bits(base)>>52) & 0x7ff
		thr := lnAmp + 1 + float64(1077-e)*math.Ln2
		q := math.Max(0, math.Min(thr, 800)) + rng.Range(-3, 3)
		if k%7 == 0 {
			q = thr + rng.Range(-1e-9, 1e-9)
		}
		tried++
		if !negligible(cullSlack(base), lnAmp, q) {
			continue
		}
		skipped++
		term := amp * math.Exp(-q)
		if got := base + term; got != base {
			t.Fatalf("base %v (%b) amp %v q %v: skipped term %v changes the sum to %v", base, base, amp, q, term, got)
		}
		// Any sum the term could be added to in eval is >= base.
		v := base * (1 + 3*rng.Float64())
		if got := v + term; got != v && !math.IsInf(v, 1) {
			t.Fatalf("v %v >= base %v amp %v q %v: skipped term %v changes the sum to %v", v, base, amp, q, term, got)
		}
		if !(base > 0) || base < 0x1p-959 || math.IsInf(base, 1) {
			t.Fatalf("base %v must never cull", base)
		}
	}
	t.Logf("%d of %d draws skipped", skipped, tried)
	if skipped < tried/10 || skipped > tried*9/10 {
		t.Fatalf("%d of %d draws skipped: the draws no longer straddle the threshold", skipped, tried)
	}
}

// BenchmarkFieldEval times field evaluation alone: each op evaluates every
// (node, type) once at a fresh epoch. paper-50 is the paper's 100 m field,
// where every plume is near every node and nothing is culled, so it shows
// the cull's overhead; scale-2k is ScaleDefault(2000)'s 632 m field, where
// most (node, plume) terms are culled. Each field runs as single lazy
// Value calls and as one EvalNodes batch per type.
func BenchmarkFieldEval(b *testing.B) {
	for _, c := range []struct {
		name string
		pos  []topology.Position
	}{{"paper-50", refPositions(50, 1)}, {"scale-2k", refPositionsIn(2000, 1, scaleSide)}} {
		b.Run(c.name+"/single", func(b *testing.B) { benchFieldEval(b, c.pos, false) })
		b.Run(c.name+"/batch", func(b *testing.B) { benchFieldEval(b, c.pos, true) })
	}
}

func benchFieldEval(b *testing.B, pos []topology.Position, batch bool) {
	g := NewGenerator(pos, sim.NewRNG(1).Stream("data"))
	ids := make([]topology.NodeID, len(pos))
	for i := range ids {
		ids[i] = topology.NodeID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		// Stepping outside the timer would dominate at small b.N; a fresh
		// epoch stamp alone makes every pair stale.
		g.epoch++
		for _, ty := range AllTypes() {
			if batch {
				g.EvalNodes(ty, ids)
				continue
			}
			for _, id := range ids {
				g.Value(id, ty)
			}
		}
	}
	b.ReportMetric(float64(len(pos)*int(NumTypes)), "evals/op")
}
