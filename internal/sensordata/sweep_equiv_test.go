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

// legacySweep is a frozen copy of the epoch sweep as it was before
// ActiveSweep became one type-major pass: the drain built the due set
// with a per-node epoch stamp and sorted it, then the protocol ran one
// per-type sweep for each type, deduplicated the per-type results with a
// stamp array and sorted the union. It drives the calendar state of its
// own generator; the generator's dueBits are never touched.
type legacySweep struct {
	g        *Generator
	dueStamp []int64 // per node: epoch it was last marked due
	stamp    []int64 // per node: worklist dedup stamp
	mask     []uint8
	scratch  []int32
	active   []int32
}

func newLegacySweep(g *Generator) *legacySweep {
	n := g.NumNodes()
	l := &legacySweep{g: g, dueStamp: make([]int64, n), stamp: make([]int64, n), mask: make([]uint8, n)}
	for i := range l.dueStamp {
		l.dueStamp[i] = -1
	}
	return l
}

// sweep is the frozen serial epoch sweep: four per-type sweeps, a stamp
// dedup and a sort.
func (l *legacySweep) sweep(lo, hi *[NumTypes][]float64) []int32 {
	gen := l.g.epoch + 1
	active := l.active[:0]
	for _, t := range AllTypes() {
		l.scratch = l.sweepType(t, lo[t], hi[t], l.scratch[:0])
		for _, i := range l.scratch {
			if l.stamp[i] != gen {
				l.stamp[i] = gen
				l.mask[i] = 0
				active = append(active, i)
			}
			l.mask[i] |= 1 << uint(t)
		}
	}
	l.active = active
	slices.Sort(active)
	return active
}

// sweepType is the frozen per-type sweep.
func (l *legacySweep) sweepType(t Type, lo, hi []float64, dst []int32) []int32 {
	g := l.g
	l.drain()
	f := g.fields[t]
	n := len(g.positions)
	base := f.params.Base + f.day(g.epoch)
	cum := f.cumBound + 1e-9
	spanLo, spanHi := t.Span()
	noise, bias := f.noise, f.bias
	snapP := g.snapPlume[int(t)*n : int(t)*n+n]
	snapC := g.snapCum[int(t)*n : int(t)*n+n]
	nextT := g.nextT[int(t)*n : int(t)*n+n]
	A := f.escA
	safety := escSafetyMargins[t]
	bit := uint8(1) << uint(t)
	start := len(dst)
	examined := 0
	for _, id := range g.dueNodes {
		if g.dueMask[id]&bit == 0 {
			continue
		}
		examined++
		i := int(id)
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
			dst = append(dst, int32(i))
			nextT[i] = A
		} else {
			m := vlo - lo[i]
			if d := hi[i] - vhi; d < m {
				m = d
			}
			T := A + m - safety
			if !(T > A) {
				T = A
			}
			nextT[i] = T
		}
	}
	hits := len(dst) - start
	g.tel.SweepHits.Add(int64(hits))
	g.tel.SweepRefutes.Add(int64(examined - hits))
	return dst
}

func (l *legacySweep) markDue(i int, bits uint8, epoch int64) {
	g := l.g
	if l.dueStamp[i] != epoch {
		l.dueStamp[i] = epoch
		g.dueMask[i] = 0
		g.dueNodes = append(g.dueNodes, int32(i))
	}
	g.dueMask[i] |= bits
}

// drain is the frozen due-set computation, ending in a sort.
func (l *legacySweep) drain() {
	g := l.g
	if g.escEpoch == g.epoch {
		return
	}
	g.escEpoch = g.epoch
	n := len(g.positions)
	epoch := g.epoch
	g.dueNodes = g.dueNodes[:0]
	if g.escAllDue {
		g.escAllDue = false
		g.forced = g.forced[:0]
		for i := 0; i < n; i++ {
			l.dueStamp[i] = epoch
			g.dueMask[i] = escAllMask
			g.dueNodes = append(g.dueNodes, int32(i))
		}
		nan := math.NaN()
		for k := range g.nextT {
			g.nextT[k] = nan
		}
		g.prevDue = append(g.prevDue[:0], g.dueNodes...)
		g.prevMask = g.prevMask[:0]
		for range g.dueNodes {
			g.prevMask = append(g.prevMask, escAllMask)
		}
		return
	}
	for _, id := range g.forced {
		i := int(id)
		for _, t := range AllTypes() {
			g.esc[t].unlink(i)
		}
		l.markDue(i, escAllMask, epoch)
	}
	g.forced = g.forced[:0]
	for p, id := range g.prevDue {
		i := int(id)
		pm := g.prevMask[p]
		for _, t := range AllTypes() {
			bit := uint8(1) << uint(t)
			if pm&bit == 0 {
				continue
			}
			if l.dueStamp[i] == epoch && g.dueMask[i]&bit != 0 {
				continue
			}
			T := g.nextT[int(t)*n+i]
			if math.IsInf(T, 1) {
				continue
			}
			if math.IsNaN(T) {
				l.markDue(i, bit, epoch)
				continue
			}
			cal := &g.esc[t]
			j := int64(T / cal.bw)
			if j <= cal.lastJ {
				l.markDue(i, bit, epoch)
				continue
			}
			if j >= cal.lastJ+escBuckets {
				j = cal.lastJ + escBuckets - 1
			}
			cal.push(i, int32(j%escBuckets))
		}
	}
	for _, t := range AllTypes() {
		cal := &g.esc[t]
		bit := uint8(1) << uint(t)
		j1 := int64(g.fields[t].escA / cal.bw)
		if j1 <= cal.lastJ {
			continue
		}
		lo := cal.lastJ + 1
		if j1-cal.lastJ > escBuckets {
			lo = j1 - escBuckets + 1
		}
		for j := lo; j <= j1; j++ {
			slot := int32(j % escBuckets)
			for id := cal.head[slot]; id >= 0; {
				nxt := cal.next[id]
				cal.bucketOf[id] = -1
				l.markDue(int(id), bit, epoch)
				id = nxt
			}
			cal.head[slot] = -1
		}
		cal.lastJ = j1
	}
	slices.Sort(g.dueNodes)
	nan := math.NaN()
	for _, id := range g.dueNodes {
		i := int(id)
		m := g.dueMask[i]
		for _, t := range AllTypes() {
			if m&(1<<uint(t)) != 0 {
				g.nextT[int(t)*n+i] = nan
			}
		}
	}
	g.prevDue = append(g.prevDue[:0], g.dueNodes...)
	g.prevMask = g.prevMask[:0]
	for _, id := range g.dueNodes {
		g.prevMask = append(g.prevMask, g.dueMask[id])
	}
}

// sweepSubject is one generator under test with its telemetry and sweep
// scratch.
type sweepSubject struct {
	name string
	g    *Generator
	tel  Telemetry
	mask []uint8
}

func newSweepSubject(name string, pos []topology.Position, seed uint64) *sweepSubject {
	s := &sweepSubject{
		name: name,
		g:    NewGenerator(pos, sim.NewRNG(seed).Stream("data")),
		tel:  Telemetry{Evals: &telemetry.Counter{}, SweepHits: &telemetry.Counter{}, SweepRefutes: &telemetry.Counter{}},
		mask: make([]uint8, len(pos)),
	}
	s.g.SetTelemetry(s.tel)
	return s
}

// TestSweepMatchesLegacy runs the frozen four-sweep path and ActiveSweep
// side by side on two generators of the same seed. Windows are random —
// hysteresis-style windows of random width around fresh readings, both
// sentinels, dirtied rewrites of quiet nodes, bulk rewrites announced by
// InvalidateWindows — and field regime shifts interleave. Every epoch the
// active lists, the active masks, every nextT, the due set and the
// telemetry totals must agree.
func TestSweepMatchesLegacy(t *testing.T) {
	epochs := 300
	if testing.Short() {
		epochs = 60
	}
	for _, tc := range []struct {
		n    int
		seed uint64
	}{{1, 1}, {63, 2}, {64, 3}, {130, 4}, {1000, 5}} {
		t.Run(fmt.Sprintf("n%d", tc.n), func(t *testing.T) {
			checkSweepAgainstLegacy(t, tc.n, tc.seed, epochs)
		})
	}
}

func checkSweepAgainstLegacy(t *testing.T, n int, seed uint64, epochs int) {
	pos := refPositions(n, seed)
	ref := newSweepSubject("legacy", pos, seed)
	one := newSweepSubject("sweep", pos, seed)
	subjects := []*sweepSubject{ref, one}
	legacy := newLegacySweep(ref.g)
	rng := sim.NewRNG(seed).Stream("windows")
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

	var want []int32
	partial := 0 // epochs whose due set was a strict, non-empty subset
	for epoch := 0; epoch < epochs; epoch++ {
		if epoch > 0 {
			for _, s := range subjects {
				s.g.Step()
			}
		}
		want = append(want[:0], legacy.sweep(&lo, &hi)...)
		got := one.g.ActiveSweep(&lo, &hi, one.mask, nil)

		g := one.g
		if !slices.Equal(got, want) {
			t.Fatalf("epoch %d %s: active %v, want %v", epoch, one.name, got, want)
		}
		for _, i := range want {
			if one.mask[i] != legacy.mask[i] {
				t.Fatalf("epoch %d %s: node %d mask %04b, want %04b", epoch, one.name, i, one.mask[i], legacy.mask[i])
			}
		}
		for k := range g.nextT {
			if math.Float64bits(g.nextT[k]) != math.Float64bits(ref.g.nextT[k]) {
				t.Fatalf("epoch %d %s: nextT[%d] = %v, want %v", epoch, one.name, k, g.nextT[k], ref.g.nextT[k])
			}
		}
		if !slices.Equal(g.dueNodes, ref.g.dueNodes) {
			t.Fatalf("epoch %d %s: due set %v, want %v", epoch, one.name, g.dueNodes, ref.g.dueNodes)
		}
		for _, i := range g.dueNodes {
			if g.dueMask[i] != ref.g.dueMask[i] {
				t.Fatalf("epoch %d %s: node %d due mask %04b, want %04b", epoch, one.name, i, g.dueMask[i], ref.g.dueMask[i])
			}
		}
		for w, word := range g.dueBits {
			if word != 0 {
				t.Fatalf("epoch %d %s: dueBits[%d] = %#x after the drain, want 0", epoch, one.name, w, word)
			}
		}
		for _, m := range []struct {
			what      string
			got, want *telemetry.Counter
		}{
			{"evals", one.tel.Evals, ref.tel.Evals},
			{"sweep hits", one.tel.SweepHits, ref.tel.SweepHits},
			{"sweep refutes", one.tel.SweepRefutes, ref.tel.SweepRefutes},
		} {
			if m.got.Value() != m.want.Value() {
				t.Fatalf("epoch %d %s: %s total %d, want %d", epoch, one.name, m.what, m.got.Value(), m.want.Value())
			}
		}

		if d := len(ref.g.dueNodes); d > 0 && d < n {
			partial++
		}

		// Sample the active pairs and re-arm their windows, as the
		// protocol does; every generator makes the same reads.
		for _, ai := range want {
			i := int(ai)
			for _, ty := range AllTypes() {
				if legacy.mask[i]&(1<<uint(ty)) == 0 {
					continue
				}
				v := ref.g.Value(topology.NodeID(i), ty)
				if got := one.g.Value(topology.NodeID(i), ty); got != v {
					t.Fatalf("epoch %d %s: node %d %s reads %v, want %v", epoch, one.name, i, ty, got, v)
				}
				if rng.Bool(0.9) {
					lo[ty][i], hi[ty][i] = randomWindow(ty, v, true)
				}
			}
		}
		// Ground-truth style reads of arbitrary nodes refresh snapshots.
		for k := rng.Intn(4); k > 0; k-- {
			id, ty := topology.NodeID(rng.Intn(n)), AllTypes()[rng.Intn(int(NumTypes))]
			for _, s := range subjects {
				s.g.Value(id, ty)
			}
		}
		// Rewrites outside the sweep→sample→refresh cycle, announced.
		switch u := rng.Float64(); {
		case u < 0.3:
			for k := 1 + rng.Intn(3); k > 0; k-- {
				i := rng.Intn(n)
				for _, ty := range AllTypes() {
					lo[ty][i], hi[ty][i] = randomWindow(ty, 0, false)
				}
				for _, s := range subjects {
					s.g.MarkWindowDirty(topology.NodeID(i))
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
			for _, s := range subjects {
				s.g.InvalidateWindows()
			}
		case u < 0.345:
			ty, d := AllTypes()[rng.Intn(int(NumTypes))], rng.Range(-0.1, 0.1)
			for _, s := range subjects {
				s.g.ShiftBase(ty, d*ty.SpanWidth())
			}
		case u < 0.36:
			ty, f := AllTypes()[rng.Intn(int(NumTypes))], rng.Range(0.3, 3)
			for _, s := range subjects {
				s.g.ScaleDynamics(ty, f)
			}
		}
	}
	if ref.tel.SweepHits.Value() == 0 || ref.tel.SweepRefutes.Value() == 0 {
		t.Fatalf("sweep outcomes one-sided: %d hits, %d refutes",
			ref.tel.SweepHits.Value(), ref.tel.SweepRefutes.Value())
	}
	if n > 1 && partial == 0 {
		t.Fatal("the calendar never held back part of the network")
	}
}
