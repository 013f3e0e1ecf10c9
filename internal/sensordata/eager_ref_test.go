package sensordata

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// eagerRef is a from-scratch reimplementation of the pre-lazy generator:
// it performs the construction draws, the per-epoch drift/noise draws and
// the full eager per-epoch evaluation exactly as the original compute()
// loop did. The lazy generator must reproduce its trajectory bit for bit —
// lazy evaluation and quiescence snapshots are allowed to change *when*
// work happens, never *what* it produces.
type eagerRef struct {
	positions []topology.Position
	fields    [NumTypes]*typeField
	epoch     int64
	values    [][NumTypes]float64
	plume     [][NumTypes]float64 // unclamped value minus base: Generator.snapPlume's counterpart
}

func newEagerRef(positions []topology.Position, rng *sim.RNG) *eagerRef {
	var w, h float64
	for _, p := range positions {
		if p.X > w {
			w = p.X
		}
		if p.Y > h {
			h = p.Y
		}
	}
	if w == 0 {
		w = 1
	}
	if h == 0 {
		h = 1
	}
	g := &eagerRef{
		positions: append([]topology.Position(nil), positions...),
		values:    make([][NumTypes]float64, len(positions)),
		plume:     make([][NumTypes]float64, len(positions)),
	}
	for _, t := range AllTypes() {
		p := DefaultParams(t)
		f := &typeField{
			params: p,
			phase:  rng.StreamN("phase", int(t)).Float64() * 2 * math.Pi,
			noise:  make([]float64, len(positions)),
			bias:   make([]float64, len(positions)),
			rng:    rng.StreamN("field", int(t)),
			width:  w,
			height: h,
		}
		if p.BiasSigma > 0 {
			type bump struct{ x, y, amp, sigma float64 }
			var bumps []bump
			for i := 0; i < 4; i++ {
				sign := 1.0
				if f.rng.Bool(0.5) {
					sign = -1
				}
				bumps = append(bumps, bump{
					x: f.rng.Range(0, w), y: f.rng.Range(0, h),
					amp:   sign * p.BiasSigma * f.rng.Range(1.2, 2.2),
					sigma: f.rng.Range(0.15, 0.35) * (w + h) / 2,
				})
			}
			for i, pos := range positions {
				v := f.rng.NormFloat64() * p.BiasSigma * 0.3
				for _, b := range bumps {
					dx, dy := pos.X-b.x, pos.Y-b.y
					v += b.amp * math.Exp(-(dx*dx+dy*dy)/(2*b.sigma*b.sigma))
				}
				f.bias[i] = v
			}
		}
		for i := 0; i < p.Plumes; i++ {
			f.plumes = append(f.plumes, plume{
				x:     f.rng.Range(0, w),
				y:     f.rng.Range(0, h),
				amp:   p.PlumeAmp * f.rng.Range(0.6, 1.4),
				sigma: p.PlumeSigma * f.rng.Range(0.8, 1.2),
			})
		}
		g.fields[t] = f
	}
	g.compute()
	return g
}

func (g *eagerRef) step() {
	g.epoch++
	for _, t := range AllTypes() {
		f := g.fields[t]
		p := f.params
		for i := range f.plumes {
			pl := &f.plumes[i]
			pl.x += f.rng.NormFloat64() * p.DriftStep
			pl.y += f.rng.NormFloat64() * p.DriftStep
			pl.x = reflect(pl.x, f.width)
			pl.y = reflect(pl.y, f.height)
		}
		for i := range f.noise {
			f.noise[i] = p.NoisePhi*f.noise[i] + f.rng.NormFloat64()*p.NoiseSigma
		}
	}
	g.compute()
}

func (g *eagerRef) compute() {
	for _, t := range AllTypes() {
		f := g.fields[t]
		p := f.params
		day := 0.0
		if p.PeriodEpoch > 0 {
			day = p.DiurnalAmp * math.Sin(2*math.Pi*float64(g.epoch)/float64(p.PeriodEpoch)+f.phase)
		}
		lo, hi := t.Span()
		for i, pos := range g.positions {
			base := p.Base + day + f.noise[i] + f.bias[i]
			v := base
			for _, pl := range f.plumes {
				dx, dy := pos.X-pl.x, pos.Y-pl.y
				v += pl.amp * math.Exp(-(dx*dx+dy*dy)/(2*pl.sigma*pl.sigma))
			}
			g.plume[i][t] = v - base
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			g.values[i][t] = v
		}
	}
}

// refPositions mirrors how scenarios lay nodes out: uniform on a 100 m
// square.
func refPositions(n int, seed uint64) []topology.Position {
	return refPositionsIn(n, seed, 100)
}

// refPositionsIn lays n nodes uniformly on a side×side square.
func refPositionsIn(n int, seed uint64, side float64) []topology.Position {
	rng := sim.NewRNG(seed)
	pos := make([]topology.Position, n)
	for i := range pos {
		pos[i] = topology.Position{X: rng.Range(0, side), Y: rng.Range(0, side)}
	}
	return pos
}

// TestLazyMatchesEagerReference pins the lazy generator to the original
// eager trajectory, reading every node every epoch.
func TestLazyMatchesEagerReference(t *testing.T) {
	pos := refPositions(40, 7)
	lazy := NewGenerator(pos, sim.NewRNG(1).Stream("data"))
	eager := newEagerRef(pos, sim.NewRNG(1).Stream("data"))

	for epoch := 0; epoch < 300; epoch++ {
		if epoch > 0 {
			lazy.Step()
			eager.step()
		}
		for _, ty := range AllTypes() {
			for i := range pos {
				got := lazy.Value(topology.NodeID(i), ty)
				want := eager.values[i][ty]
				if got != want {
					t.Fatalf("epoch %d node %d type %s: lazy %v != eager %v",
						epoch, i, ty, got, want)
				}
			}
		}
	}
}

// TestLazySparseReadsMatchEager reads only a drifting subset of nodes each
// epoch (and everything at the end), so stale snapshots must re-evaluate
// to exactly the eager value no matter how long they slept.
func TestLazySparseReadsMatchEager(t *testing.T) {
	pos := refPositions(40, 11)
	lazy := NewGenerator(pos, sim.NewRNG(3).Stream("data"))
	eager := newEagerRef(pos, sim.NewRNG(3).Stream("data"))

	for epoch := 1; epoch <= 500; epoch++ {
		lazy.Step()
		eager.step()
		// Read a small, epoch-dependent subset.
		for k := 0; k < 3; k++ {
			i := (epoch*7 + k*13) % len(pos)
			ty := AllTypes()[(epoch+k)%int(NumTypes)]
			if got, want := lazy.Value(topology.NodeID(i), ty), eager.values[i][ty]; got != want {
				t.Fatalf("epoch %d node %d type %s: lazy %v != eager %v", epoch, i, ty, got, want)
			}
		}
	}
	for _, ty := range AllTypes() {
		for i := range pos {
			if got, want := lazy.Value(topology.NodeID(i), ty), eager.values[i][ty]; got != want {
				t.Fatalf("final read node %d type %s: lazy %v != eager %v", i, ty, got, want)
			}
		}
	}
}
