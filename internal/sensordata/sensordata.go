package sensordata

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Type identifies one of the four sensor types in the evaluation.
type Type int

// The four sensor types.
const (
	Temperature Type = iota
	Humidity
	Light
	SoilMoisture
	NumTypes
)

// String returns the sensor type name.
func (t Type) String() string {
	switch t {
	case Temperature:
		return "temperature"
	case Humidity:
		return "humidity"
	case Light:
		return "light"
	case SoilMoisture:
		return "soil-moisture"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// allTypes backs AllTypes so the hot per-epoch loops can enumerate types
// without allocating.
var allTypes = []Type{Temperature, Humidity, Light, SoilMoisture}

// AllTypes returns the four sensor types in order. The returned slice is
// shared and must not be modified.
func AllTypes() []Type {
	return allTypes
}

// Span returns the physical value range of the sensor type. The DirQ
// threshold δ is expressed as a percentage of this span.
func (t Type) Span() (min, max float64) {
	switch t {
	case Temperature:
		return -10, 40 // °C
	case Humidity:
		return 0, 100 // %RH
	case Light:
		return 0, 1000 // lux (scaled)
	case SoilMoisture:
		return 0, 60 // volumetric %
	default:
		return 0, 1
	}
}

// SpanWidth returns max - min of the type's physical range.
func (t Type) SpanWidth() float64 {
	lo, hi := t.Span()
	return hi - lo
}

// FieldParams tunes the synthetic field for one sensor type.
type FieldParams struct {
	Base        float64 // resting field level
	DiurnalAmp  float64 // amplitude of the day/night sinusoid
	PeriodEpoch int     // epochs per simulated day
	Plumes      int     // number of moving Gaussian plumes
	PlumeAmp    float64 // peak plume amplitude
	PlumeSigma  float64 // plume spatial stddev (same units as positions)
	DriftStep   float64 // plume centre random-walk step per epoch
	NoiseSigma  float64 // per-node AR(1) innovation stddev
	NoisePhi    float64 // AR(1) coefficient in [0,1)
	// BiasSigma is the stddev of each node's static microclimate offset
	// (shade, aspect, soil composition). It creates the persistent
	// node-to-node value diversity range queries discriminate on, without
	// adding temporal volatility.
	BiasSigma float64
}

// DefaultParams returns field parameters that keep each type's values well
// inside its physical span while exhibiting clear spatial and temporal
// structure.
func DefaultParams(t Type) FieldParams {
	switch t {
	case Temperature:
		return FieldParams{Base: 15, DiurnalAmp: 2.5, PeriodEpoch: 1000, Plumes: 4,
			PlumeAmp: 10, PlumeSigma: 20, DriftStep: 0.15, NoiseSigma: 0.025, NoisePhi: 0.9,
			BiasSigma: 6}
	case Humidity:
		return FieldParams{Base: 55, DiurnalAmp: 4, PeriodEpoch: 1000, Plumes: 4,
			PlumeAmp: 16, PlumeSigma: 25, DriftStep: 0.15, NoiseSigma: 0.06, NoisePhi: 0.9,
			BiasSigma: 12}
	case Light:
		return FieldParams{Base: 420, DiurnalAmp: 120, PeriodEpoch: 1000, Plumes: 3,
			PlumeAmp: 180, PlumeSigma: 18, DriftStep: 0.25, NoiseSigma: 0.6, NoisePhi: 0.85,
			BiasSigma: 110}
	case SoilMoisture:
		return FieldParams{Base: 28, DiurnalAmp: 1.5, PeriodEpoch: 1000, Plumes: 4,
			PlumeAmp: 10, PlumeSigma: 20, DriftStep: 0.08, NoiseSigma: 0.02, NoisePhi: 0.95,
			BiasSigma: 7}
	default:
		return FieldParams{Base: 0.5, DiurnalAmp: 0.1, PeriodEpoch: 1000, Plumes: 1,
			PlumeAmp: 0.2, PlumeSigma: 20, DriftStep: 0.3, NoiseSigma: 0.01, NoisePhi: 0.9}
	}
}

// Far-plume culling. For a positive normal base with biased exponent e,
// ulp(base)/4 = 2^(e−1077), and a term amp·exp(−q) is below it when
// q > ln(amp) + (1077−e)·ln 2. The threshold adds one nat (a factor of e)
// to absorb Exp's sub-ulp error and the rounding of the threshold itself.
//
// cullMinExp keeps culling off for bases below 2^-959. There Exp's
// subnormal results (absolute error up to 2^-1074) scaled by amp could
// reach ulp(base)/4; from e = 64 up that needs amp >= 2^59, far above any
// plume's. cullFloorSlack is the threshold's slack at e = 1053. Every base
// below 2^31 has at least that slack, so eval can test the per-plume floor
// ln(amp)+cullFloorSlack before reading the base's bits: the floor changes
// no decision for those bases and only culls less for larger ones.
const (
	cullMinExp     = 64
	cullFloorSlack = 1 + 24*math.Ln2
)

// cullSlack is the base's part of the cull threshold, (1077−e)·ln 2 for
// biased exponent e, or +Inf where culling is off, which no q exceeds.
// sim.PlumeSum drops a term amp·exp(−q), 0 < amp < 2^59, when q > ln(amp)
// + 1 + slack with slack = cullSlack(base). Adding it to any sum v >= base
// would leave v bit-for-bit unchanged: the term is below ulp(base)/4 <=
// ulp(v)/4, so round-to-nearest returns v. Culling is off whenever base is
// not a positive normal number of at least 2^-959. Evaluation computes the
// slack once per node.
func cullSlack(base float64) float64 {
	e := int(math.Float64bits(base)>>52) & 0x7ff
	if !(base > 0) || e < cullMinExp || e == 0x7ff {
		return math.Inf(1)
	}
	return float64(1077-e) * math.Ln2
}

// typeField is the per-sensor-type field state.
//
// Each plume is a moving Gaussian hotspot: its centre, amplitude and the
// derived terms eval reads are in plumes, its spatial stddev in sigma. The
// amplitude is positive: it is drawn once at construction (see
// NewGenerator) and never rebuilt, which is what lets eval cull a plume's
// negligible far tail exactly. CullQ, ln(amp) + cullFloorSlack, is eval's
// slack-free pre-filter for that cull.
//
// The plume-motion bound ActiveSweep refutes escapes with is cumBound, one
// sum for every node, plus, on a field wide enough for a grid, the node's
// cell's sum (see cellBound): a plume's move then charges its full bound
// only to the cells within its reach, and every other cell only a
// far-field term at most 6·e^-17.5 ≈ 1.5e-7 times the steepest slope.
type typeField struct {
	params FieldParams
	plumes []sim.Plume
	sigma  []float64
	phase  float64 // random diurnal phase offset
	noise  []float64
	bias   []float64 // static per-node microclimate offsets
	rng    *sim.RNG
	width  float64
	height float64

	// Lazy-evaluation state: the diurnal term cached per epoch, and the
	// running sum of conservative per-epoch bounds on how much the plume
	// component of *any* node's value can have moved (see Step).
	dayEpoch int64 // epoch dayVal is valid for; -1 = stale
	dayVal   float64
	cumBound float64

	// The type's cell sums where the generator has a grid (see newGrid);
	// nil without one, where cumBound carries each plume's whole bound.
	cells *cellBound
}

// cellBound is one type's share of the plume-motion grid. cum[c] is the
// running sum of the plume-motion bounds charged to cell c alone, so a
// node's plume component has moved by at most cumBound + cum[its cell]
// since that sum was recorded. A plume charges only the cells within
// reach of it (see chargeCells); far[i] is plume i's amp·plumeSlope(reach,
// σ), the bound per metre moved that covers every other cell.
type cellBound struct {
	reach float64
	far   []float64
	cum   []float64
}

// dayAt computes the type's diurnal term for an epoch from scratch.
func (f *typeField) dayAt(epoch int64) float64 {
	if f.params.PeriodEpoch <= 0 {
		return 0
	}
	return f.params.DiurnalAmp *
		math.Sin(2*math.Pi*float64(epoch)/float64(f.params.PeriodEpoch)+f.phase)
}

// day returns the type's diurnal term for the given epoch, cached so the
// per-node paths pay one sin per type per epoch at most.
func (f *typeField) day(epoch int64) float64 {
	if f.dayEpoch != epoch {
		f.dayEpoch = epoch
		f.dayVal = f.dayAt(epoch)
	}
	return f.dayVal
}

// Generator produces the dataset epoch by epoch. It is deterministic given
// its seed stream and must be advanced strictly sequentially with Step.
//
// Values are evaluated lazily: Step advances the field *state* (plume
// positions, per-node AR(1) noise — consuming exactly the same RNG draws
// as always, so determinism is untouched) while the expensive per-node
// field evaluation happens only when a value is actually read. Together
// with ActiveSweep this makes a quiescent network's per-epoch cost
// independent of the plume math: nodes whose reading provably cannot have
// left their hysteresis window are never evaluated at all.
type Generator struct {
	positions []topology.Position
	fields    [NumTypes]*typeField
	epoch     int64
	values    [][NumTypes]float64 // last evaluated value per node per type

	// Per (type, node) lazy-evaluation records, indexed t*N + i.
	stamp     []int64   // epoch values[i][t] was evaluated at
	snapPlume []float64 // plume-sum component recorded at that evaluation
	snapCum   []float64 // bound (see boundAt) at that evaluation; -Inf = no usable snapshot
	evals     uint64    // total per-(node, type) field evaluations
	scratch   evalScratch

	// The plume-motion grid; nil on a field too small for one to help
	// (see newGrid).
	grid *plumeGrid

	tel Telemetry
}

// Telemetry is the generator's instrument set. All fields may be nil (the
// instruments are nil-safe); the counters mirror bookkeeping the generator
// already does and never influence field evolution or RNG draws.
type Telemetry struct {
	// Evals counts per-(node, type) field evaluations — the expensive
	// plume math the lazy layer tries to avoid.
	Evals *telemetry.Counter
	// SweepHits counts (node, type) pairs ActiveSweep could NOT
	// prove quiet.
	SweepHits *telemetry.Counter
	// SweepRefutes counts (node, type) pairs ActiveSweep proved quiet.
	// The sweep examines every pair, so hits plus refutes grow by
	// N·NumTypes per sweep.
	SweepRefutes *telemetry.Counter
}

// SetTelemetry binds (or, with the zero value, unbinds) the generator's
// instruments.
func (g *Generator) SetTelemetry(t Telemetry) { g.tel = t }

// NewGenerator builds a generator for the given node positions. The area
// bounds are inferred from the positions. The rng should be a dedicated
// stream (e.g. root.Stream("data")).
func NewGenerator(positions []topology.Position, rng *sim.RNG) *Generator {
	var w, h float64
	inArea := true // every coordinate finite and non-negative
	for _, p := range positions {
		if p.X > w {
			w = p.X
		}
		if p.Y > h {
			h = p.Y
		}
		inArea = inArea && p.X >= 0 && p.Y >= 0
	}
	inArea = inArea && !math.IsInf(w, 1) && !math.IsInf(h, 1)
	if w == 0 {
		w = 1
	}
	if h == 0 {
		h = 1
	}
	g := &Generator{
		positions: append([]topology.Position(nil), positions...),
		values:    make([][NumTypes]float64, len(positions)),
		stamp:     make([]int64, len(positions)*int(NumTypes)),
		snapPlume: make([]float64, len(positions)*int(NumTypes)),
		snapCum:   make([]float64, len(positions)*int(NumTypes)),
	}
	for i := range g.stamp {
		g.stamp[i] = -1
		g.snapCum[i] = math.Inf(-1) // no snapshot yet: nothing provable
	}
	for _, t := range AllTypes() {
		p := DefaultParams(t)
		f := &typeField{
			params:   p,
			phase:    rng.StreamN("phase", int(t)).Float64() * 2 * math.Pi,
			noise:    make([]float64, len(positions)),
			bias:     make([]float64, len(positions)),
			rng:      rng.StreamN("field", int(t)),
			width:    w,
			height:   h,
			dayEpoch: -1,
		}
		// The microclimate bias is itself spatially structured: a static
		// landscape of Gaussian bumps plus a small independent component,
		// so nearby nodes stay "spatially related" (§7) while distant nodes
		// differ persistently.
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
					v += b.amp * sim.Exp(-(dx*dx+dy*dy)/(2*b.sigma*b.sigma))
				}
				f.bias[i] = v
			}
		}
		// Plumes are fixed here for the generator's lifetime: SetParams,
		// ShiftBase and ScaleDynamics never rebuild them. Every amplitude is
		// positive (PlumeAmp > 0 for every type, times U(0.6, 1.4)); eval's
		// far-plume culling relies on it.
		if p.Plumes > maxPlumes {
			panic("sensordata: more than 64 plumes per type") // stepType's drift array
		}
		for i := 0; i < p.Plumes; i++ {
			pl := sim.Plume{
				X:   f.rng.Range(0, w),
				Y:   f.rng.Range(0, h),
				Amp: p.PlumeAmp * f.rng.Range(0.6, 1.4),
			}
			sigma := p.PlumeSigma * f.rng.Range(0.8, plumeSigmaHi)
			lnAmp := math.Log(pl.Amp)
			pl.Den = 2 * sigma * sigma
			pl.LnAmp1 = lnAmp + 1
			pl.CullQ = lnAmp + cullFloorSlack
			f.plumes = append(f.plumes, pl)
			f.sigma = append(f.sigma, sigma)
		}
		g.fields[t] = f
	}
	if inArea {
		g.newGrid(w, h)
	}
	g.compute()
	return g
}

// SetParams overrides the field parameters of one sensor type; values
// reflect the change from the current epoch on. It may be called mid-run —
// the run stays deterministic as long as the call happens at the same
// epoch across runs (scripted dynamics rely on this). The plumes themselves
// (count, amplitude, width) are fixed at construction: Plumes, PlumeAmp and
// PlumeSigma are ignored here, so the per-epoch RNG consumption never
// changes.
func (g *Generator) SetParams(t Type, p FieldParams) {
	g.fields[t].params = p
	g.invalidate()
}

// invalidate discards every cached evaluation and quiescence snapshot — a
// field parameter changed, so previously proven bounds no longer hold.
func (g *Generator) invalidate() {
	negInf := math.Inf(-1)
	for k := range g.stamp {
		g.stamp[k] = -1
		g.snapCum[k] = negInf
	}
	for _, t := range AllTypes() {
		g.fields[t].dayEpoch = -1
	}
}

// Params returns the current field parameters of one sensor type.
func (g *Generator) Params(t Type) FieldParams {
	return g.fields[t].params
}

// ShiftBase adds delta (in the type's physical units) to the resting field
// level of one sensor type — a regime shift: the whole field jumps and
// settles at the new level. Values recompute immediately; like SetParams
// it is deterministic when applied at a fixed epoch.
func (g *Generator) ShiftBase(t Type, delta float64) {
	g.fields[t].params.Base += delta
	g.invalidate()
}

// ScaleDynamics multiplies the temporal volatility of one sensor type —
// plume drift and AR(1) innovation amplitude — by factor. Factors above 1
// model accelerating drift (a storm front, failing sensors); below 1, a
// calming field. The RNG draw count per epoch is unchanged, so the other
// types' streams stay aligned.
func (g *Generator) ScaleDynamics(t Type, factor float64) {
	p := &g.fields[t].params
	p.DriftStep *= factor
	p.NoiseSigma *= factor
	g.invalidate()
}

// Epoch returns the current epoch (starting at 0).
func (g *Generator) Epoch() int64 { return g.epoch }

// NumNodes returns the number of nodes covered by the dataset.
func (g *Generator) NumNodes() int { return len(g.positions) }

// Value returns the current reading of a node for a sensor type, clamped
// to the type's physical span, evaluating the field for that node lazily.
func (g *Generator) Value(id topology.NodeID, t Type) float64 {
	i := int(id)
	if g.stamp[int(t)*len(g.positions)+i] != g.epoch {
		g.eval(i, t)
	}
	return g.values[i][t]
}

// Values returns the current readings of all nodes for one type, indexed by
// NodeID. The returned slice is freshly allocated.
func (g *Generator) Values(t Type) []float64 {
	out := make([]float64, len(g.values))
	for i := range g.values {
		out[i] = g.Value(topology.NodeID(i), t)
	}
	return out
}

// Evals returns the total number of per-(node, type) field evaluations
// performed so far — the work quiescence gating exists to avoid. Tests use
// it to prove that quiet windows cost nothing.
func (g *Generator) Evals() uint64 { return g.evals }

// maxPlumeSlope is the magnitude of a unit-amplitude Gaussian's steepest
// slope, attained one sigma from the centre: exp(-1/2)/sigma.
const maxPlumeSlope = 0.6065306597126334

// Step advances the dataset by one epoch: plume centres drift, the diurnal
// phase advances, and per-node AR(1) noise evolves. Values are NOT
// recomputed here; each type's cumulative plume-motion bound grows by how
// much this epoch's drift can possibly have changed a node's plume sum,
// which is what lets ActiveSweep refute hysteresis escapes without
// evaluating the field. Without a grid that is one bound for every node.
// With one (a field at least gridMinReaches plume reaches wide), each
// plume's move charges only the cells within its reach, by the least of
// three bounds on its term's change there, plus a far-field term for
// every node (see chargeCells).
func (g *Generator) Step() {
	g.epoch++
	for _, t := range AllTypes() {
		g.stepType(t)
	}
}

// stepType advances one type's field state by one epoch.
//
// Every draw goes through NormFloat64s, which yields exactly the
// NormFloat64 sequence: first each plume's x and y innovation in plume
// order, then the per-node AR(1) innovations a stack block at a time.
func (g *Generator) stepType(t Type) {
	f := g.fields[t]
	p := f.params
	var d [2 * maxPlumes]float64
	drift := d[:2*len(f.plumes)]
	f.rng.NormFloat64s(drift)
	motion := 0.0
	for i := range f.plumes {
		pl := &f.plumes[i]
		ox, oy := pl.X, pl.Y
		pl.X += drift[2*i] * p.DriftStep
		pl.Y += drift[2*i+1] * p.DriftStep
		// Reflect at the area boundary so plumes stay in play.
		pl.X = reflect(pl.X, f.width)
		pl.Y = reflect(pl.Y, f.height)
		// Conservative bound on this plume's contribution change at any
		// position: displacement times the Gaussian's steepest slope,
		// capped at the full amplitude. Reflection is a contraction, so
		// the realized displacement is what matters.
		amp := math.Abs(pl.Amp)
		b := amp
		dx, dy := pl.X-ox, pl.Y-oy
		disp := math.Sqrt(dx*dx + dy*dy)
		if sigma := f.sigma[i]; sigma > 0 {
			if s := disp * maxPlumeSlope / sigma * amp; s < b {
				b = s
			}
		}
		if f.cells != nil {
			g.chargeCells(f, i, ox, oy, disp, b)
			continue
		}
		motion += b
	}
	var z [noiseBlock]float64
	for noise := f.noise; len(noise) > 0; {
		zb := z[:min(len(noise), noiseBlock)]
		f.rng.NormFloat64s(zb)
		for j := range zb {
			noise[j] = p.NoisePhi*noise[j] + zb[j]*p.NoiseSigma
		}
		noise = noise[len(zb):]
	}
	f.cumBound += motion
}

// The plume-motion grid's geometry, all derived from the plumes' σ: a
// plume's reach is plumeReach times the largest σ its type draws
// (plumeSigmaHi·PlumeSigma); cells are cellsPerReach to a reach on a
// side, or wider where that would leave fewer than nodesPerCell nodes to
// a cell on average; and a field gets a grid only if its shorter side
// spans gridMinReaches reaches. Below that, some plume reaches nearly
// every cell, so per-cell charges cost work and refute nothing more.
const (
	plumeSigmaHi   = 1.2
	plumeReach     = 6
	cellsPerReach  = 2
	nodesPerCell   = 8
	gridMinReaches = 4
)

// plumeGrid divides the field [0, w] × [0, h] into nx × ny cells of cw ×
// ch; cell (ix, iy) is number iy·nx + ix, and node i lies in cell[i].
// pad is the absolute slack chargeCells allows for rounding in cell
// assignment and distances, far above either: every node lies within pad
// of its cell's rectangle.
type plumeGrid struct {
	nx, ny      int
	cw, ch, pad float64
	cell        []int32
}

// newGrid builds the plume-motion grid, every node's cell index and each
// type's cell sums for a field of w × h holding every position, or leaves
// the generator without a grid where the field is too small for one (see
// gridMinReaches).
func (g *Generator) newGrid(w, h float64) {
	var reach [NumTypes]float64
	maxReach := 0.0
	for t, f := range g.fields {
		reach[t] = plumeReach * plumeSigmaHi * f.params.PlumeSigma
		maxReach = max(maxReach, reach[t])
	}
	if !(maxReach > 0) || !(min(w, h) >= gridMinReaches*maxReach) {
		return
	}
	n := len(g.positions)
	side := max(maxReach/cellsPerReach, math.Sqrt(w*h*nodesPerCell/float64(n)))
	nx, ny := max(1, int(w/side)), max(1, int(h/side))
	gr := &plumeGrid{nx: nx, ny: ny, cw: w / float64(nx), ch: h / float64(ny), pad: (w + h) * 0x1p-40,
		cell: make([]int32, n)}
	for i, p := range g.positions {
		ix := min(int(p.X/gr.cw), nx-1)
		iy := min(int(p.Y/gr.ch), ny-1)
		gr.cell[i] = int32(iy*nx + ix)
	}
	for t, f := range g.fields {
		c := &cellBound{reach: reach[t], far: make([]float64, len(f.plumes)), cum: make([]float64, nx*ny)}
		for i, pl := range f.plumes {
			c.far[i] = pl.Amp * plumeSlope(c.reach, f.sigma[i])
		}
		f.cells = c
	}
	g.grid = gr
}

// plumeSlope is the largest gradient magnitude a unit-amplitude Gaussian
// of stddev sigma has at any distance of at least r from its centre: the
// peak slope e^(-1/2)/σ up to r = σ, and (r/σ²)·e^(-r²/2σ²) beyond, where
// the slope falls monotonically.
func plumeSlope(r, sigma float64) float64 {
	if r <= sigma {
		return maxPlumeSlope / sigma
	}
	return r / (sigma * sigma) * sim.Exp(-(r*r)/(2*sigma*sigma))
}

// chargeSlack scales every charge chargeCells makes, to cover the rounding
// of the dozen or so operations (each within 2^-53 relative, Exp within
// an ulp) that compute it. upAdd then accumulates with rounding upward,
// so cumBound and each cell sum stay at or above the exact sums of what
// they were charged. What is left is the rounding of cumBound + cum[c]
// when record stores it and when ActiveSweep recomputes it,
// which the sweep's 1e-9 margin covers with the reconstruction's own.
const chargeSlack = 1 + 0x1p-40

// upAdd returns x + c·chargeSlack, rounded up.
func upAdd(x, c float64) float64 {
	return math.Nextafter(x+c*chargeSlack, math.Inf(1))
}

// chargeCells charges plume i's move this epoch, from (ox, oy) by disp,
// to the grid. The change of a Gaussian term A·e^(-ρ²/2σ²) at a point p
// is bounded three ways, each of which the charge may take:
//
//   - b, stepType's bound for every point: disp times the steepest slope
//     A·e^(-1/2)/σ, capped at A;
//   - for every p in a cell, the centre moved along a segment all of
//     whose points lie at least r = rectDist(cell, old centre) − disp
//     from p, so the change is at most disp·A·plumeSlope(r);
//   - both the old and the new term lie in (0, A·e^(-r²/2σ²)], and so does
//     their difference.
//
// Cells within reach + disp + 2·pad of the old centre take the least of
// the three; where r ≤ σ that is b, as plumeSlope(r) is then the steepest
// slope. r is taken pad short, which covers a node lying just outside its
// cell's rectangle by rounding, and the rounding of r itself. Every other
// cell's nodes, allowing pad for that and pad for the rounding of the
// span's cell indices, are farther than reach + disp, so r > reach ≥ 6σ
// and plumeSlope(r) ≤ plumeSlope(reach): the far-field term disp·far[i]
// covers them, and it goes into cumBound, which every node reads. A move
// that is not finite or exceeds reach (a drift scaled far up) charges b
// to cumBound instead, as a field without a grid does.
func (g *Generator) chargeCells(f *typeField, i int, ox, oy, disp, b float64) {
	c, sigma := f.cells, f.sigma[i]
	if !(disp <= c.reach) || !(sigma > 0) {
		f.cumBound = upAdd(f.cumBound, b)
		return
	}
	f.cumBound = upAdd(f.cumBound, min(b, disp*c.far[i]))
	gr := g.grid
	amp, ss := math.Abs(f.plumes[i].Amp), sigma*sigma
	span := c.reach + disp + 2*gr.pad
	ix0, ix1 := cellSpan(ox, span, gr.cw, gr.nx)
	iy0, iy1 := cellSpan(oy, span, gr.ch, gr.ny)
	for iy := iy0; iy <= iy1; iy++ {
		dy := max(0, float64(iy)*gr.ch-oy, oy-float64(iy+1)*gr.ch)
		row := c.cum[iy*gr.nx : (iy+1)*gr.nx]
		for ix := ix0; ix <= ix1; ix++ {
			dx := max(0, float64(ix)*gr.cw-ox, ox-float64(ix+1)*gr.cw)
			charge := b
			if r := math.Sqrt(dx*dx+dy*dy) - disp - gr.pad; r > sigma {
				e := amp * sim.Exp(-(r*r)/(2*ss))
				charge = min(b, e, e*(disp*r/ss))
			}
			row[ix] = upAdd(row[ix], charge)
		}
	}
}

// cellSpan returns the first and last cell index, of n cells of size
// side, that reach within r of v, clamped to the grid.
func cellSpan(v, r, side float64, n int) (lo, hi int) {
	lo = max(0, int(math.Floor((v-r)/side)))
	hi = min(n-1, int(math.Floor((v+r)/side)))
	return lo, hi
}

// boundAt is the plume-motion bound node i's snapshots of t are measured
// against: cumBound, plus the node's cell term where there is a grid.
func (g *Generator) boundAt(f *typeField, i int) float64 {
	if g.grid == nil {
		return f.cumBound
	}
	return f.cumBound + f.cells.cum[g.grid.cell[i]]
}

// noiseBlock is how many AR(1) innovations stepType draws per block.
const noiseBlock = 256

// maxPlumes bounds the plumes of one type: stepType draws their drift
// into a stack array.
const maxPlumes = 64

// reflect folds v back into [0, limit]. Within 2·limit of the area the
// loop makes at most one pass; further out v is first reduced modulo the
// 2·limit period, so even a huge drift returns at once. NaN and ±Inf come
// back as NaN.
func reflect(v, limit float64) float64 {
	if math.Abs(v) > 2*limit {
		v = math.Mod(v, 2*limit)
	}
	for v < 0 || v > limit {
		if v < 0 {
			v = -v
		}
		if v > limit {
			v = 2*limit - v
		}
	}
	return v
}

// eval computes one node's value for one type at the current epoch — the
// exact arithmetic the former eager per-epoch sweep used — and records the
// quiescence snapshot (plume component and cumulative-bound watermark).
//
// A plume term that cannot change the sum is skipped without calling Exp.
// Every term is positive, so with base > 0 each partial sum is >= base and
// a term below ulp(base)/4 rounds away (see cullSlack); the result is bit
// for bit the full sum's.
func (g *Generator) eval(i int, t Type) {
	f := g.fields[t]
	pos := g.positions[i]
	base := f.pairBase(i, f.day(g.epoch))
	v := sim.PlumeSum(base, pos.X, pos.Y, cullSlack(base), f.plumes)
	g.record(i, t, base, v)
	g.evals++
	g.tel.Evals.Inc()
}

// pairBase is where node i's sum starts: resting level, diurnal term,
// AR(1) noise and static bias.
func (f *typeField) pairBase(i int, day float64) float64 {
	return f.params.Base + day + f.noise[i] + f.bias[i]
}

// record stores a fresh evaluation of node i for type t whose sum started
// at base and ended at v: the snapshot, the value clamped to the type's
// span, and the stamp. A NaN value or snapshot is stored as math.NaN(),
// since which operand's payload a NaN sum carries depends on the order
// the compiler or a kernel adds in.
func (g *Generator) record(i int, t Type, base, v float64) {
	lo, hi := t.Span()
	k := int(t)*len(g.positions) + i
	if v != v {
		v = math.NaN()
	}
	snap := v - base
	if snap != snap {
		snap = math.NaN()
	}
	g.snapPlume[k] = snap
	g.snapCum[k] = g.boundAt(g.fields[t], i)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	g.values[i][t] = v
	g.stamp[k] = g.epoch
}

// evalChunk is how many nodes EvalNodes gathers per pass.
const evalChunk = 256

// useKernels routes EvalNodes and ActiveSweep through sim's vector
// kernels, which leave the work to the scalar paths on hosts without
// them. It is a variable only so that tests can force the scalar paths.
var useKernels = true

// evalScratch is EvalNodes' per-chunk scratch, kept by the generator so
// that batches allocate only while it grows to its first full chunk. The
// float columns are indexed by position in the chunk.
type evalScratch struct {
	node        []int32
	base, v     []float64 // v: the sum, starting at base
	x, y, slack []float64 // position and cullSlack(base)
}

// EvalNodes evaluates type t for every listed node whose value is stale at
// the current epoch, so that the Value calls that follow find them fresh.
// Values, snapshots and the Evals count are bit for bit what lazy Value
// calls would have produced; a repeated ID is evaluated once.
//
// The work is type-major and batched. For a chunk of nodes it computes
// every base and cull slack exactly as eval does, then the plume sums in
// sim.PlumeSums, which takes four nodes at a time where the host has its
// kernel and otherwise calls eval's sim.PlumeSum.
func (g *Generator) EvalNodes(t Type, ids []topology.NodeID) {
	f := g.fields[t]
	n := len(g.positions)
	stamp := g.stamp[int(t)*n : int(t)*n+n]
	day := f.day(g.epoch)
	b := &g.scratch
	count := 0
	for len(ids) > 0 {
		b.node, b.base, b.x, b.y, b.slack = b.node[:0], b.base[:0], b.x[:0], b.y[:0], b.slack[:0]
		for ; len(ids) > 0 && len(b.node) < evalChunk; ids = ids[1:] {
			i := int(ids[0])
			if stamp[i] == g.epoch {
				continue
			}
			stamp[i] = g.epoch
			pos := g.positions[i]
			base := f.pairBase(i, day)
			b.node = append(b.node, int32(i))
			b.base = append(b.base, base)
			b.x = append(b.x, pos.X)
			b.y = append(b.y, pos.Y)
			b.slack = append(b.slack, cullSlack(base))
		}
		b.v = append(b.v[:0], b.base...)
		if useKernels {
			sim.PlumeSums(b.v, b.x, b.y, b.slack, f.plumes)
		} else {
			for m, v := range b.v {
				b.v[m] = sim.PlumeSum(v, b.x[m], b.y[m], b.slack[m], f.plumes)
			}
		}
		for m, i := range b.node {
			g.record(int(i), t, b.base[m], b.v[m])
		}
		count += len(b.node)
	}
	g.evals += uint64(count)
	g.tel.Evals.Add(int64(count))
}

// compute eagerly evaluates every node for every type (generator
// construction; everything after is lazy).
func (g *Generator) compute() {
	for _, t := range AllTypes() {
		for i := range g.positions {
			g.eval(i, t)
		}
	}
}

// ActiveSweep finds the nodes whose current-epoch reading for some type t
// cannot be *proven* to lie inside the caller's per-(type, node) window
// [lo[t][i], hi[t][i]] — for the DirQ protocol, the node's own hysteresis
// tuple. It writes each node's active-type bitmask into mask[i] (zero for
// a node proved quiet) and appends the ID of every node with a non-zero
// mask to dst in ascending order.
//
// The proof is conservative and O(1) per (node, type): the diurnal, noise
// and bias terms are exact (the generator evolves them every epoch
// anyway), only the plume sum is bracketed by the cumulative motion bound
// accumulated since the node's last evaluation, and the bracket is
// clamped to the physical span exactly like real readings. On a field
// with a grid that bound is the global sum plus the node's cell's sum
// (see Step), so only nodes near a moving plume accumulate much of it. Sentinel
// windows compose naturally: (+Inf, -Inf) is always swept out (evaluate
// every epoch), (-Inf, +Inf) never is (unmounted or dead nodes). A node
// missing from the result is guaranteed to read values inside its windows
// this epoch, so skipping its hysteresis checks is behaviour-preserving,
// not an approximation.
//
// Every call is one type-major pass over every (node, type) pair and reads
// the windows as they are at the call, so callers may rewrite any window
// between sweeps. Step already costs O(N·types) per epoch (one noise draw
// per pair), which the few compares per pair here do not change.
// Telemetry: per-type hits and refutes are added to the counters.
func (g *Generator) ActiveSweep(lo, hi *[NumTypes][]float64, mask []uint8, dst []int32) []int32 {
	n := len(g.positions)
	mask = mask[:n]
	clear(mask)
	for _, t := range AllTypes() {
		f := g.fields[t]
		base := f.params.Base + f.day(g.epoch)
		// Tiny absolute margin so float rounding in the reconstruction (and
		// in adding a cell's sum, see chargeSlack) can never flip a
		// knife-edge case to a false "quiet".
		cum := f.cumBound + 1e-9
		spanLo, spanHi := t.Span()
		noise, bias := f.noise[:n], f.bias[:n]
		snapP := g.snapPlume[int(t)*n : int(t)*n+n]
		snapC := g.snapCum[int(t)*n : int(t)*n+n]
		wlo, whi := lo[t][:n], hi[t][:n]
		var cell []int32
		var cellCum []float64
		if g.grid != nil {
			cell, cellCum = g.grid.cell, f.cells.cum
		}
		bit := uint8(1) << uint(t)
		var k int
		var hits int64
		if useKernels {
			k, hits = sim.SweepWindows(mask, bit, base, cum, spanLo, spanHi, noise, bias, snapP, snapC, wlo, whi, cell, cellCum)
		}
		for i := k; i < n; i++ {
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
			if vlo < wlo[i] || vhi > whi[i] {
				mask[i] |= bit
				hits++
			}
		}
		g.tel.SweepHits.Add(hits)
		g.tel.SweepRefutes.Add(int64(n) - hits)
	}
	for i, m := range mask {
		if m != 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// Volatility is an EWMA estimator of a signal's mean absolute per-epoch
// change — the "rate of variation of the measured physical parameter" that
// drives the ATC (§6). The zero value is ready to use with DefaultAlpha.
type Volatility struct {
	alpha   float64
	mean    float64
	last    float64
	started bool
}

// DefaultAlpha is the EWMA smoothing factor used when none is set.
const DefaultAlpha = 0.05

// NewVolatility returns an estimator with the given smoothing factor in
// (0, 1].
func NewVolatility(alpha float64) *Volatility {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("sensordata: EWMA alpha %v outside (0,1]", alpha))
	}
	return &Volatility{alpha: alpha}
}

// Observe feeds the next sample of the signal.
func (v *Volatility) Observe(x float64) {
	if v.alpha == 0 {
		v.alpha = DefaultAlpha
	}
	if !v.started {
		v.started = true
		v.last = x
		return
	}
	d := math.Abs(x - v.last)
	v.last = x
	v.mean = (1-v.alpha)*v.mean + v.alpha*d
}

// MeanAbsDelta returns the smoothed mean absolute per-sample change.
func (v *Volatility) MeanAbsDelta() float64 { return v.mean }

// TypeSet is the set of sensor types mounted on one node.
type TypeSet uint8

// Has reports whether the set contains t.
func (s TypeSet) Has(t Type) bool { return s&(1<<uint(t)) != 0 }

// With returns the set extended with t.
func (s TypeSet) With(t Type) TypeSet { return s | (1 << uint(t)) }

// Without returns the set with t removed.
func (s TypeSet) Without(t Type) TypeSet { return s &^ (1 << uint(t)) }

// typeSetMembers caches the member list of every possible TypeSet, so
// Types — called per node per epoch on the hot simulation path — never
// allocates.
var typeSetMembers = func() [1 << NumTypes][]Type {
	var table [1 << NumTypes][]Type
	for s := range table {
		var members []Type
		for _, t := range allTypes {
			if TypeSet(s).Has(t) {
				members = append(members, t)
			}
		}
		table[s] = members
	}
	return table
}()

// Types lists the members in order. The returned slice is shared and must
// not be modified.
func (s TypeSet) Types() []Type {
	return typeSetMembers[s&(1<<NumTypes-1)]
}

// Len returns the number of types in the set.
func (s TypeSet) Len() int {
	n := 0
	for _, t := range AllTypes() {
		if s.Has(t) {
			n++
		}
	}
	return n
}

// AllTypeSet returns the set containing every sensor type.
func AllTypeSet() TypeSet {
	var s TypeSet
	for _, t := range AllTypes() {
		s = s.With(t)
	}
	return s
}

// AssignTypes gives every node (except the root, which is a pure sink) a
// random non-empty subset of sensor types: each type is mounted with
// probability p. This produces the heterogeneous deployments of §4.1/Fig. 4.
func AssignTypes(n int, p float64, rng *sim.RNG) []TypeSet {
	sets := make([]TypeSet, n)
	for i := 1; i < n; i++ {
		var s TypeSet
		for _, t := range AllTypes() {
			if rng.Bool(p) {
				s = s.With(t)
			}
		}
		if s == 0 {
			s = s.With(AllTypes()[rng.Intn(int(NumTypes))])
		}
		sets[i] = s
	}
	return sets
}

// AssignAllTypes mounts every sensor type on every node except the root —
// the homogeneous configuration used by the headline experiments.
func AssignAllTypes(n int) []TypeSet {
	sets := make([]TypeSet, n)
	for i := 1; i < n; i++ {
		sets[i] = AllTypeSet()
	}
	return sets
}
