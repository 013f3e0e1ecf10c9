package sampling

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sensordata"
	"repro/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.LevelAlpha = 0 },
		func(c *Config) { c.TrendAlpha = 1.5 },
		func(c *Config) { c.ResidAlpha = -1 },
		func(c *Config) { c.Margin = -1 },
		func(c *Config) { c.MaxSkip = 0 },
		func(c *Config) { c.Warmup = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if _, err := NewGate(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestPredictorTracksConstantSignal(t *testing.T) {
	p := &Predictor{cfg: DefaultConfig()}
	for i := 0; i < 50; i++ {
		p.Observe(20)
	}
	v, unc := p.Predict()
	if math.Abs(v-20) > 1e-9 {
		t.Fatalf("prediction %v, want 20", v)
	}
	if unc > 1e-9 {
		t.Fatalf("uncertainty %v for constant signal, want ~0", unc)
	}
}

func TestPredictorTracksLinearTrend(t *testing.T) {
	p := &Predictor{cfg: DefaultConfig()}
	for i := 0; i < 200; i++ {
		p.Observe(float64(i) * 0.1)
	}
	v, _ := p.Predict()
	want := 200 * 0.1
	if math.Abs(v-want) > 0.5 {
		t.Fatalf("trend prediction %v, want ≈ %v", v, want)
	}
}

func TestPredictorUncertaintyGrowsWithSkips(t *testing.T) {
	p := &Predictor{cfg: DefaultConfig()}
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		p.Observe(10 + rng.NormFloat64())
	}
	_, u1 := p.Predict()
	p.skipped = 5
	_, u6 := p.Predict()
	if u6 <= u1 {
		t.Fatalf("uncertainty did not grow with skips: %v -> %v", u1, u6)
	}
}

func TestGateSkipsCalmSignalInsideTuple(t *testing.T) {
	g, err := NewGate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	own := core.Tuple{Min: 15, Max: 25}
	ty := sensordata.Temperature
	for epoch := 0; epoch < 200; epoch++ {
		if g.ShouldSample(3, ty, own, true) {
			g.OnSample(3, ty, 20)
		}
	}
	st := g.Stats()
	if st.Skipped == 0 {
		t.Fatal("calm in-tuple signal never skipped")
	}
	if st.SkipFraction() < 0.5 {
		t.Fatalf("skip fraction %v, want > 0.5 for a constant signal", st.SkipFraction())
	}
	// MaxSkip must force periodic resampling.
	if st.Taken < 200/int64(DefaultConfig().MaxSkip) {
		t.Fatalf("only %d samples taken; MaxSkip cap not enforced", st.Taken)
	}
}

func TestGateSamplesNearTupleEdge(t *testing.T) {
	g, err := NewGate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ty := sensordata.Humidity
	rng := sim.NewRNG(2)
	// Noisy signal centred ON the tuple edge: margin*resid straddles it,
	// so the gate must keep sampling.
	own := core.Tuple{Min: 48, Max: 52}
	taken := 0
	for epoch := 0; epoch < 200; epoch++ {
		if g.ShouldSample(4, ty, own, true) {
			g.OnSample(4, ty, 52+rng.NormFloat64())
			taken++
		}
	}
	if frac := float64(taken) / 200; frac < 0.9 {
		t.Fatalf("sampled only %v of epochs at the tuple edge, want ~1", frac)
	}
}

func TestGateAlwaysSamplesWithoutTuple(t *testing.T) {
	g, err := NewGate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 50; epoch++ {
		if !g.ShouldSample(1, sensordata.Light, core.Tuple{}, false) {
			t.Fatal("skipped an acquisition before any tuple exists")
		}
		g.OnSample(1, sensordata.Light, 100)
	}
}

func TestGateWarmup(t *testing.T) {
	cfg := DefaultConfig()
	g, err := NewGate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	own := core.Tuple{Min: 0, Max: 100}
	for epoch := 0; epoch < cfg.Warmup; epoch++ {
		if !g.ShouldSample(1, sensordata.Temperature, own, true) {
			t.Fatalf("skipped during warmup at epoch %d", epoch)
		}
		g.OnSample(1, sensordata.Temperature, 50)
	}
}

func TestGatePerNodePredictorsIndependent(t *testing.T) {
	g, err := NewGate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.OnSample(1, sensordata.Temperature, 10)
	g.OnSample(2, sensordata.Temperature, 90)
	p1 := g.preds[gateKey{1, sensordata.Temperature}]
	p2 := g.preds[gateKey{2, sensordata.Temperature}]
	v1, _ := p1.Predict()
	v2, _ := p2.Predict()
	if v1 == v2 {
		t.Fatal("predictors shared across nodes")
	}
	if g.preds[gateKey{9, sensordata.Temperature}] != nil {
		t.Fatal("phantom predictor")
	}
}

func TestStatsSkipFraction(t *testing.T) {
	if (Stats{}).SkipFraction() != 0 {
		t.Fatal("empty stats")
	}
	s := Stats{Taken: 25, Skipped: 75}
	if s.SkipFraction() != 0.75 {
		t.Fatalf("SkipFraction = %v", s.SkipFraction())
	}
}

// TestSkippedReadingsCannotTriggerUpdates verifies the gate's core safety
// property on synthetic AR(1) data: whenever the gate skips, the true
// value at that epoch is still inside the tuple (so no update was missed),
// except with at most a small failure rate attributable to model error.
func TestSkippedReadingsCannotTriggerUpdates(t *testing.T) {
	g, err := NewGate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	rt := core.NewRangeTable()
	const delta = 2.0
	v := 20.0
	var skips, violations int
	for epoch := 0; epoch < 5000; epoch++ {
		v = 0.98*v + 0.02*20 + rng.NormFloat64()*0.05 // slow AR(1) around 20
		own, hasOwn := rt.Own()
		if g.ShouldSample(1, sensordata.Temperature, own, hasOwn) {
			g.OnSample(1, sensordata.Temperature, v)
			rt.ObserveReading(v, delta)
			continue
		}
		skips++
		if hasOwn && (v < own.Min || v > own.Max) {
			violations++
		}
	}
	if skips == 0 {
		t.Fatal("gate never skipped on a calm AR(1) signal")
	}
	if frac := float64(violations) / float64(skips); frac > 0.01 {
		t.Fatalf("%.2f%% of skips hid a threshold crossing, want < 1%%", frac*100)
	}
}
