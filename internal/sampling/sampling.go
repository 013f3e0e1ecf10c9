package sampling

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sensordata"
	"repro/internal/topology"
)

// Config tunes the predictive sampler.
type Config struct {
	// LevelAlpha smooths the predicted level (0 < α ≤ 1).
	LevelAlpha float64
	// TrendAlpha smooths the predicted per-epoch trend.
	TrendAlpha float64
	// ResidAlpha smooths the absolute residual estimate.
	ResidAlpha float64
	// Margin is the safety multiplier on the residual: the node samples
	// unless prediction ± Margin·residual stays inside the tuple.
	Margin float64
	// MaxSkip forces a physical sample at least every MaxSkip epochs.
	MaxSkip int
	// Warmup is the number of initial samples taken unconditionally.
	Warmup int
}

// DefaultConfig returns conservative settings: skip only with a 4-sigma
// style margin and resample at least every 10 epochs.
func DefaultConfig() Config {
	return Config{
		LevelAlpha: 0.4,
		TrendAlpha: 0.2,
		ResidAlpha: 0.1,
		Margin:     4,
		MaxSkip:    10,
		Warmup:     8,
	}
}

// Validate rejects out-of-range settings.
func (c Config) Validate() error {
	for _, a := range []float64{c.LevelAlpha, c.TrendAlpha, c.ResidAlpha} {
		if a <= 0 || a > 1 {
			return fmt.Errorf("sampling: smoothing factor %v outside (0,1]", a)
		}
	}
	if c.Margin < 0 {
		return fmt.Errorf("sampling: negative margin %v", c.Margin)
	}
	if c.MaxSkip < 1 {
		return fmt.Errorf("sampling: MaxSkip %d < 1", c.MaxSkip)
	}
	if c.Warmup < 1 {
		return fmt.Errorf("sampling: Warmup %d < 1", c.Warmup)
	}
	return nil
}

// Predictor is a double-EWMA (level + trend) one-step forecaster with a
// residual-scale estimate. The zero value is not usable; it is managed by
// Gate.
type Predictor struct {
	cfg     Config
	level   float64
	trend   float64
	resid   float64
	samples int
	skipped int
}

// Observe feeds a real measurement.
func (p *Predictor) Observe(v float64) {
	if p.samples == 0 {
		p.level = v
		p.samples = 1
		p.skipped = 0
		return
	}
	pred, _ := p.Predict()
	r := math.Abs(v - pred)
	p.resid = (1-p.cfg.ResidAlpha)*p.resid + p.cfg.ResidAlpha*r
	prevLevel := p.level
	p.level = (1-p.cfg.LevelAlpha)*pred + p.cfg.LevelAlpha*v
	p.trend = (1-p.cfg.TrendAlpha)*p.trend + p.cfg.TrendAlpha*(p.level-prevLevel)
	p.samples++
	p.skipped = 0
}

// Predict returns the one-step forecast and the smoothed absolute
// residual. When skips have accumulated, the forecast extrapolates the
// trend and the uncertainty grows linearly with the number of skipped
// epochs — a conservative random-walk widening.
func (p *Predictor) Predict() (v, uncertainty float64) {
	steps := float64(p.skipped + 1)
	return p.level + p.trend*steps, p.resid * steps
}

// Stats aggregates sampling behaviour.
type Stats struct {
	Taken   int64 // physical acquisitions performed
	Skipped int64 // acquisitions avoided by prediction
}

// SkipFraction returns Skipped / (Taken + Skipped).
func (s Stats) SkipFraction() float64 {
	total := s.Taken + s.Skipped
	if total == 0 {
		return 0
	}
	return float64(s.Skipped) / float64(total)
}

// Gate implements core.SampleGate: one predictor per (node, sensor type).
type Gate struct {
	cfg   Config
	preds map[gateKey]*Predictor
	stats Stats
}

type gateKey struct {
	id topology.NodeID
	t  sensordata.Type
}

var _ core.SampleGate = (*Gate)(nil)

// NewGate builds a predictive-sampling gate.
func NewGate(cfg Config) (*Gate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Gate{cfg: cfg, preds: map[gateKey]*Predictor{}}, nil
}

// Stats returns the cumulative sampling counters.
func (g *Gate) Stats() Stats { return g.stats }

// ShouldSample implements core.SampleGate. It returns false — skip the
// physical acquisition — only when the forecast, widened by the safety
// margin, cannot escape the node's current hysteresis tuple.
func (g *Gate) ShouldSample(id topology.NodeID, t sensordata.Type, own core.Tuple, hasOwn bool) bool {
	k := gateKey{id, t}
	p := g.preds[k]
	if p == nil {
		p = &Predictor{cfg: g.cfg}
		g.preds[k] = p
	}
	if !hasOwn || p.samples < g.cfg.Warmup || p.skipped >= g.cfg.MaxSkip {
		g.stats.Taken++
		return true
	}
	pred, unc := p.Predict()
	lo := pred - g.cfg.Margin*unc
	hi := pred + g.cfg.Margin*unc
	if lo > own.Min && hi < own.Max {
		p.skipped++
		g.stats.Skipped++
		return false
	}
	g.stats.Taken++
	return true
}

// OnSample implements core.SampleGate: it feeds the measurement into the
// node's predictor.
func (g *Gate) OnSample(id topology.NodeID, t sensordata.Type, v float64) {
	k := gateKey{id, t}
	p := g.preds[k]
	if p == nil {
		p = &Predictor{cfg: g.cfg}
		g.preds[k] = p
	}
	p.Observe(v)
}
