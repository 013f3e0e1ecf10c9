package atc

import (
	"math"
	"testing"

	"repro/internal/core"
)

func params() NetworkParams { return NetworkParams{N: 31, Internal: 15, Links: 30} }

func TestNetworkParamsCostModel(t *testing.T) {
	// A perfect binary tree of depth 4 has N=31, 15 internal nodes; the
	// generalized formulas must reproduce the §5 closed forms.
	p := params()
	if p.CFTotal() != 91 {
		t.Fatalf("CFTotal = %v, want 91", p.CFTotal())
	}
	if p.CQDMax() != 45 {
		t.Fatalf("CQDMax = %v, want 45", p.CQDMax())
	}
	if p.CUDMax() != 60 {
		t.Fatalf("CUDMax = %v, want 60", p.CUDMax())
	}
	if math.Abs(p.FMax()-46.0/60.0) > 1e-12 {
		t.Fatalf("FMax = %v, want 46/60 (the paper's 0.76 example)", p.FMax())
	}
}

func TestNetworkParamsValidate(t *testing.T) {
	bad := []NetworkParams{
		{N: 1, Internal: 1, Links: 0},
		{N: 10, Internal: 0, Links: 9},
		{N: 10, Internal: 10, Links: 9},
		{N: 10, Internal: 5, Links: 3},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
	if err := params().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestUmaxPerHourScalesWithLoad(t *testing.T) {
	p := params()
	u5 := p.UmaxPerHour(5)
	u10 := p.UmaxPerHour(10)
	if math.Abs(u10-2*u5) > 1e-9 {
		t.Fatalf("Umax not linear in query rate: %v vs %v", u5, u10)
	}
	// fMax * qph * (N-1) = 46/60 * 5 * 30 = 115.
	if math.Abs(u5-115) > 1e-9 {
		t.Fatalf("UmaxPerHour(5) = %v, want 115", u5)
	}
}

func TestBudgetPerNode(t *testing.T) {
	p := params()
	b := p.BudgetPerNode(10, 0.5)
	// 0.5 * 46/60 * 10 ≈ 3.83 updates/node/hour.
	if math.Abs(b-0.5*46.0/60.0*10) > 1e-9 {
		t.Fatalf("BudgetPerNode = %v", b)
	}
	if p.BudgetPerNode(10, 0) != 0 {
		t.Fatal("rho=0 should give zero budget")
	}
	// Network-wide consistency: budget * (N-1) == rho * Umax.
	if math.Abs(b*30-0.5*p.UmaxPerHour(10)) > 1e-9 {
		t.Fatal("per-node budget inconsistent with network Umax")
	}
}

func TestNewControllerValidation(t *testing.T) {
	bad := []Config{
		{EpochsPerHour: 0, InitialPct: 5, MinPct: 1, MaxPct: 10},
		{EpochsPerHour: 100, InitialPct: 0, MinPct: 1, MaxPct: 10},
		{EpochsPerHour: 100, InitialPct: 5, MinPct: 5, MaxPct: 1},
		{EpochsPerHour: 100, InitialPct: 5, MinPct: 1, MaxPct: 10, FeedbackGamma: 2},
	}
	for i, cfg := range bad {
		if _, err := NewController(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if _, err := NewController(DefaultConfig(100)); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestControllerInitialDelta(t *testing.T) {
	c, _ := NewController(DefaultConfig(100))
	if c.DeltaPct() != 5 {
		t.Fatalf("initial δ %v, want 5", c.DeltaPct())
	}
}

func TestFeedforwardScalesWithVolatility(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.FeedbackGamma = 0 // isolate feedforward
	lowC, _ := NewController(cfg)
	highC, _ := NewController(cfg)
	est := core.EstimateMsg{Seq: 1, QueriesPerHr: 10, BudgetPerNode: 4}
	lowC.OnEpoch(0.0005) // calm signal
	highC.OnEpoch(0.01)  // volatile signal
	lowC.OnEstimate(est)
	highC.OnEstimate(est)
	if lowC.DeltaPct() >= highC.DeltaPct() {
		t.Fatalf("volatile node should use larger δ: calm=%v volatile=%v",
			lowC.DeltaPct(), highC.DeltaPct())
	}
	// Feedforward solution: width = vol*E/budget → pct = vol*100*100/4.
	want := 0.01 * 100 / 4 * 100
	if want > cfg.MaxPct {
		want = cfg.MaxPct
	}
	if math.Abs(highC.DeltaPct()-want) > 1e-9 {
		t.Fatalf("feedforward δ %v, want %v", highC.DeltaPct(), want)
	}
}

func TestFeedforwardScalesInverselyWithBudget(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.FeedbackGamma = 0
	a, _ := NewController(cfg)
	b, _ := NewController(cfg)
	a.OnEpoch(0.002)
	b.OnEpoch(0.002)
	a.OnEstimate(core.EstimateMsg{Seq: 1, BudgetPerNode: 1})
	b.OnEstimate(core.EstimateMsg{Seq: 1, BudgetPerNode: 8})
	if a.DeltaPct() <= b.DeltaPct() {
		t.Fatalf("bigger budget must narrow δ: budget1=%v budget8=%v",
			a.DeltaPct(), b.DeltaPct())
	}
}

func TestZeroBudgetWidensToMax(t *testing.T) {
	cfg := DefaultConfig(100)
	c, _ := NewController(cfg)
	c.OnEpoch(0.002)
	c.OnEstimate(core.EstimateMsg{Seq: 1, BudgetPerNode: 0})
	if c.DeltaPct() != cfg.MaxPct {
		t.Fatalf("zero budget δ = %v, want max %v", c.DeltaPct(), cfg.MaxPct)
	}
}

func TestFeedbackCorrectsOverspend(t *testing.T) {
	cfg := DefaultConfig(100)
	c, _ := NewController(cfg)
	c.OnEpoch(0.002)
	est := core.EstimateMsg{Seq: 1, BudgetPerNode: 2}
	c.OnEstimate(est)
	base := c.DeltaPct()
	// Overspend: 20 updates against a budget of 2.
	for i := 0; i < 20; i++ {
		c.OnUpdateSent()
	}
	c.OnEstimate(core.EstimateMsg{Seq: 2, BudgetPerNode: 2})
	if c.DeltaPct() <= base {
		t.Fatalf("overspend did not widen δ: %v -> %v", base, c.DeltaPct())
	}
	if c.gain <= 1 {
		t.Fatalf("gain %v after overspend, want > 1", c.gain)
	}
}

func TestFeedbackCorrectsUnderspend(t *testing.T) {
	cfg := DefaultConfig(100)
	c, _ := NewController(cfg)
	c.OnEpoch(0.01)
	c.OnEstimate(core.EstimateMsg{Seq: 1, BudgetPerNode: 10})
	// Send nothing for two hours.
	c.OnEstimate(core.EstimateMsg{Seq: 2, BudgetPerNode: 10})
	if c.gain >= 1 {
		t.Fatalf("gain %v after underspend, want < 1", c.gain)
	}
}

func TestGainClamped(t *testing.T) {
	cfg := DefaultConfig(100)
	c, _ := NewController(cfg)
	c.OnEpoch(0.002)
	c.OnEstimate(core.EstimateMsg{Seq: 1, BudgetPerNode: 1})
	for hour := 0; hour < 50; hour++ {
		for i := 0; i < 1000; i++ {
			c.OnUpdateSent()
		}
		c.OnEstimate(core.EstimateMsg{Seq: int64(hour + 2), BudgetPerNode: 1})
	}
	if c.gain > 40 {
		t.Fatalf("gain %v exceeded clamp", c.gain)
	}
	if c.DeltaPct() > cfg.MaxPct {
		t.Fatalf("δ %v exceeded max", c.DeltaPct())
	}
}

func TestDeltaAlwaysWithinBounds(t *testing.T) {
	cfg := DefaultConfig(100)
	c, _ := NewController(cfg)
	vols := []float64{0, 1e-9, 1e-4, 0.01, 0.5, 10}
	budgets := []float64{0.01, 0.1, 1, 10, 1000}
	seq := int64(1)
	for _, v := range vols {
		for _, b := range budgets {
			c.OnEpoch(v)
			c.OnEstimate(core.EstimateMsg{Seq: seq, BudgetPerNode: b})
			seq++
			if c.DeltaPct() < cfg.MinPct || c.DeltaPct() > cfg.MaxPct {
				t.Fatalf("δ %v outside [%v,%v] for vol=%v budget=%v",
					c.DeltaPct(), cfg.MinPct, cfg.MaxPct, v, b)
			}
		}
	}
}

func TestControllerConvergesToBudget(t *testing.T) {
	// Closed-loop sanity: simulate a node whose update count for threshold
	// width w is exactly vol*E/w per hour, and verify the sent count
	// converges near the budget.
	cfg := DefaultConfig(100)
	c, _ := NewController(cfg)
	const vol = 0.004 // span fraction per epoch
	const budget = 3.0
	c.OnEpoch(vol)
	c.OnEstimate(core.EstimateMsg{Seq: 1, BudgetPerNode: budget})
	var lastSent float64
	for hour := 0; hour < 30; hour++ {
		widthFrac := c.DeltaPct() / 100
		sent := vol * float64(cfg.EpochsPerHour) / widthFrac
		lastSent = sent
		for i := 0; i < int(sent+0.5); i++ {
			c.OnUpdateSent()
		}
		c.OnEpoch(vol)
		c.OnEstimate(core.EstimateMsg{Seq: int64(hour + 2), BudgetPerNode: budget})
	}
	if lastSent < budget*0.6 || lastSent > budget*1.4 {
		t.Fatalf("converged update rate %v per hour, want ≈ %v", lastSent, budget)
	}
}

func TestBudgetFunc(t *testing.T) {
	f, err := BudgetFunc(params(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f(10), params().BudgetPerNode(10, 0.5); got != want {
		t.Fatalf("BudgetFunc(10) = %v, want %v", got, want)
	}
	if _, err := BudgetFunc(params(), 0); err == nil {
		t.Fatal("rho=0 accepted")
	}
	if _, err := BudgetFunc(params(), 1.5); err == nil {
		t.Fatal("rho=1.5 accepted")
	}
	if _, err := BudgetFunc(NetworkParams{N: 1, Internal: 1, Links: 0}, 0.5); err == nil {
		t.Fatal("invalid params accepted")
	}
}
