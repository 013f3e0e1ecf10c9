package scenario

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/radio"
)

// small returns a fast configuration for tests.
func small() Config {
	cfg := Default()
	cfg.NumNodes = 25
	cfg.Epochs = 1200
	cfg.Seed = 7
	return cfg
}

func TestValidate(t *testing.T) {
	good := small()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.NumNodes = 1 },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.QueryInterval = 0 },
		func(c *Config) { c.EpochsPerHour = 0 },
		func(c *Config) { c.Coverage = 0 },
		func(c *Config) { c.Coverage = 1.2 },
		func(c *Config) { c.Mode = FixedDelta; c.FixedPct = -1 },
		func(c *Config) { c.Mode = ATC; c.Rho = 0 },
		func(c *Config) { c.BucketEpochs = 0 },
		func(c *Config) { c.PacketLoss = 1 },
		func(c *Config) { c.Mode = FixedDelta; c.FixedPct = math.NaN() },
		func(c *Config) { c.Coverage = math.NaN() },
		func(c *Config) { c.Mode = ATC; c.Rho = math.NaN() },
		func(c *Config) { c.PacketLoss = math.NaN() },
	}
	for i, mutate := range cases {
		c := small()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	// An infinite δ is the flooding baseline's limit (it uses 1e9) and
	// stays legal.
	inf := small()
	inf.Mode, inf.FixedPct = FixedDelta, math.Inf(1)
	if err := inf.Validate(); err != nil {
		t.Fatalf("FixedPct +Inf rejected: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if FixedDelta.String() != "fixed" || ATC.String() != "atc" {
		t.Fatal("mode names")
	}
	if ThresholdMode(9).String() == "" {
		t.Fatal("unknown mode should stringify")
	}
}

func TestRunFixedDeltaProducesQueries(t *testing.T) {
	res, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	wantQueries := int((small().Epochs - small().WarmupEpochs + small().QueryInterval - 1) / small().QueryInterval)
	if res.QueriesInjected == 0 {
		t.Fatal("no queries injected")
	}
	if math.Abs(float64(res.QueriesInjected-wantQueries)) > 2 {
		t.Fatalf("queries %d, want ≈ %d", res.QueriesInjected, wantQueries)
	}
	if len(res.Accuracies) != res.QueriesInjected {
		t.Fatalf("%d accuracies for %d queries", len(res.Accuracies), res.QueriesInjected)
	}
	if res.FloodCost <= 0 {
		t.Fatal("flooding baseline cost not accounted")
	}
	if res.QueryCost.Total() <= 0 || res.UpdateCost.Total() <= 0 {
		t.Fatalf("missing costs: %+v %+v", res.QueryCost, res.UpdateCost)
	}
}

func TestDirQCheaperThanFlooding(t *testing.T) {
	// The core claim: directed dissemination plus updates costs less than
	// flooding every query, across threshold modes.
	for _, mode := range []ThresholdMode{FixedDelta, ATC} {
		cfg := small()
		cfg.Mode = mode
		cfg.FixedPct = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CostFraction <= 0 || res.CostFraction >= 1 {
			t.Fatalf("%v: cost fraction %v, want in (0,1)", mode, res.CostFraction)
		}
	}
}

func TestLargerDeltaFewerUpdates(t *testing.T) {
	run := func(pct float64) int64 {
		cfg := small()
		cfg.FixedPct = pct
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.UpdateCost.Tx
	}
	u3, u9 := run(3), run(9)
	if u9 >= u3 {
		t.Fatalf("δ=9%% sent %d updates, δ=3%% sent %d: larger δ must send fewer", u9, u3)
	}
}

func TestLargerDeltaMoreOvershoot(t *testing.T) {
	run := func(pct float64) float64 {
		cfg := small()
		cfg.Coverage = 0.2 // accuracy effects are strongest at low coverage (§7.1)
		cfg.FixedPct = pct
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.PctShouldNot
	}
	o1, o9 := run(1), run(9)
	if o9 <= o1 {
		t.Fatalf("wrongly-reached%%: δ=9%%:%v <= δ=1%%:%v; Fig. 5 trend violated", o9, o1)
	}
}

func TestATCStaysWithinBudgetBand(t *testing.T) {
	cfg := small()
	cfg.Mode = ATC
	cfg.Epochs = 3000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After convergence (skip the first 10 buckets), the per-bucket update
	// count should sit below Umax and above zero.
	sums := res.UpdateTxPerBucket
	if len(sums) < 15 {
		t.Fatalf("only %d buckets", len(sums))
	}
	var late []float64
	for _, v := range sums[10:] {
		late = append(late, v)
	}
	mean := 0.0
	for _, v := range late {
		mean += v
	}
	mean /= float64(len(late))
	if mean <= 0 {
		t.Fatal("ATC sent no updates after convergence")
	}
	if mean >= res.UmaxPerHour {
		t.Fatalf("ATC update rate %v exceeds Umax %v", mean, res.UmaxPerHour)
	}
}

func TestATCCostFractionNearTarget(t *testing.T) {
	cfg := small()
	cfg.Mode = ATC
	cfg.Epochs = 4000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: between 45% and 55% of flooding. Allow slack
	// for the small test network, but require the right ballpark.
	if res.CostFraction < 0.2 || res.CostFraction > 0.8 {
		t.Fatalf("ATC cost fraction %v, want in the vicinity of 0.5", res.CostFraction)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	if a.QueryCost != b.QueryCost || a.UpdateCost != b.UpdateCost ||
		a.FloodCost != b.FloodCost || a.Summary != b.Summary {
		t.Fatal("identical configs produced different results")
	}
}

func TestSeedChangesResults(t *testing.T) {
	a, _ := Run(small())
	cfg := small()
	cfg.Seed = 8
	b, _ := Run(cfg)
	if a.UpdateCost == b.UpdateCost && a.QueryCost == b.QueryCost {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestHeterogeneousNetworkRuns(t *testing.T) {
	cfg := small()
	cfg.Heterogeneous = true
	cfg.TypeProb = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesInjected == 0 || res.Summary.PctReceived <= 0 {
		t.Fatalf("heterogeneous run degenerate: %+v", res.Summary)
	}
}

func TestPacketLossRuns(t *testing.T) {
	cfg := small()
	cfg.PacketLoss = 0.05
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesInjected == 0 {
		t.Fatal("lossy run injected no queries")
	}
}

func TestBucketsCoverRun(t *testing.T) {
	cfg := small()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int(cfg.Epochs / cfg.BucketEpochs)
	if len(res.UpdateTxPerBucket) != want {
		t.Fatalf("%d update buckets, want %d", len(res.UpdateTxPerBucket), want)
	}
	if len(res.DeltaPctPerBucket) != want {
		t.Fatalf("%d delta buckets, want %d", len(res.DeltaPctPerBucket), want)
	}
}

func TestCoverageTracksTarget(t *testing.T) {
	for _, cov := range []float64{0.2, 0.6} {
		cfg := small()
		cfg.Coverage = cov
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Summary.PctShould / 100
		if math.Abs(got-cov) > 0.12 {
			t.Fatalf("coverage %v: mean involved fraction %v", cov, got)
		}
	}
}

func TestUmaxReference(t *testing.T) {
	res, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	// 5 queries/hour on the deployed tree.
	if res.UmaxPerHour <= 0 {
		t.Fatalf("UmaxPerHour = %v", res.UmaxPerHour)
	}
}

func TestBuildErrors(t *testing.T) {
	cfg := small()
	cfg.NumNodes = 0
	if _, err := Build(cfg); err == nil {
		t.Fatal("invalid config built")
	}
	cfg = small()
	cfg.MaxDepth = 1 // cannot span a 25-node multihop network
	cfg.MaxFanout = 2
	if _, err := Build(cfg); err == nil {
		t.Fatal("impossible tree caps accepted")
	}
}

func TestPredictiveSamplingSavesAcquisitions(t *testing.T) {
	cfg := small()
	cfg.PredictiveSampling = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling.Taken == 0 {
		t.Fatal("no samples recorded")
	}
	if res.Sampling.SkipFraction() < 0.2 {
		t.Fatalf("skip fraction %v, want meaningful savings on calm data", res.Sampling.SkipFraction())
	}
	// Accuracy must not collapse relative to the always-sample run.
	base, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanOvershoot > base.Summary.MeanOvershoot+6 {
		t.Fatalf("sampling degraded overshoot too much: %v vs %v",
			res.Summary.MeanOvershoot, base.Summary.MeanOvershoot)
	}
}

func TestPredictiveSamplingOffByDefault(t *testing.T) {
	res, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling.Taken != 0 || res.Sampling.Skipped != 0 {
		t.Fatalf("sampling stats populated without the flag: %+v", res.Sampling)
	}
}

func TestFloodingModeCostsApproxBaseline(t *testing.T) {
	cfg := small()
	cfg.DisseminateByFlooding = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flooding dissemination plus (one-off) initial table reports should
	// cost essentially the flooding baseline.
	if res.CostFraction < 0.95 || res.CostFraction > 1.1 {
		t.Fatalf("flooding-mode cost fraction %v, want ~1", res.CostFraction)
	}
	// Every node receives every query: received ~= 100%.
	if res.Summary.PctReceived < 95 {
		t.Fatalf("flooding delivered to %v%% of nodes, want ~100", res.Summary.PctReceived)
	}
	// And updates are suppressed beyond the initial reports.
	if res.UpdateCost.Tx > int64(cfg.NumNodes*8) {
		t.Fatalf("flooding mode sent %d updates, want only initial reports", res.UpdateCost.Tx)
	}
}

// TestFloodingModeSendsNoDirectedQueries checks that the flooding
// baseline's copies stay flood traffic: no node routes one onward as a
// DirQ query, so a flood-mode run meters no ClassQuery cost at all.
func TestFloodingModeSendsNoDirectedQueries(t *testing.T) {
	cfg := small()
	cfg.DisseminateByFlooding = true
	r, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	if c := r.Meter.ByClass(radio.ClassQuery); c != (radio.Cost{}) {
		t.Fatalf("flood-mode run metered query traffic %+v, want none", c)
	}
	if c := r.Meter.ByClass(radio.ClassFlood); c.Tx == 0 {
		t.Fatal("flood-mode run sent no flood traffic")
	}
}

func TestEnergyLifetimeDirQOutlivesFlooding(t *testing.T) {
	// The operational consequence of the 45-55% headline: with equal
	// batteries, the DirQ network outlives the flooding network.
	run := func(floodMode bool) *Result {
		cfg := small()
		cfg.Epochs = 4000
		cfg.EnergyCapacity = 800
		cfg.DisseminateByFlooding = floodMode
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dirq := run(false)
	fld := run(true)
	if fld.FirstDeathEpoch < 0 {
		t.Skip("flooding network survived the whole run; raise epochs or lower capacity")
	}
	if dirq.FirstDeathEpoch >= 0 && dirq.FirstDeathEpoch <= fld.FirstDeathEpoch {
		t.Fatalf("DirQ first death at %d, flooding at %d: DirQ should live longer",
			dirq.FirstDeathEpoch, fld.FirstDeathEpoch)
	}
	if dirq.DeadAtEnd > fld.DeadAtEnd {
		t.Fatalf("DirQ lost %d nodes vs flooding %d", dirq.DeadAtEnd, fld.DeadAtEnd)
	}
}

func TestEnergyDisabledByDefault(t *testing.T) {
	res, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDeathEpoch != -1 || res.DeadAtEnd != 0 {
		t.Fatalf("energy stats populated without capacity: %d %d",
			res.FirstDeathEpoch, res.DeadAtEnd)
	}
}

func coreTraceUpdate() core.TraceKind        { return core.TraceUpdateSent }
func coreTraceQueryReceived() core.TraceKind { return core.TraceQueryReceived }
func coreTraceEstimate() core.TraceKind      { return core.TraceEstimate }

func TestTraceRecordsProtocolEvents(t *testing.T) {
	cfg := small()
	cfg.TraceCapacity = 10000
	r, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if r.Trace == nil {
		t.Fatal("recorder missing")
	}
	if got := r.Trace.Count(coreTraceUpdate()); got == 0 {
		t.Fatal("no update events traced")
	}
	if r.Trace.Count(coreTraceQueryReceived()) == 0 {
		t.Fatal("no query events traced")
	}
	if r.Trace.Count(coreTraceEstimate()) == 0 {
		t.Fatal("no estimate events traced")
	}
	_ = res
}

func TestStaticIndexMissesMoreThanDirQ(t *testing.T) {
	// The §2 comparison: a frozen (SRT-style) index, built once at
	// deployment, misses relevant nodes as soon as the measured values
	// drift away from the recorded ranges; DirQ's Update Messages keep the
	// miss rate low. "SRT is more suited for constant attributes... DirQ
	// is capable of working with varying attributes."
	missRate := func(accs []metrics.Accuracy) float64 {
		var missed, should int
		for _, a := range accs {
			missed += a.NumMissed
			should += a.NumShould
		}
		if should == 0 {
			return 0
		}
		return float64(missed) / float64(should)
	}
	run := func(mode ThresholdMode) float64 {
		cfg := small()
		cfg.Epochs = 4000
		cfg.Mode = mode
		cfg.FixedPct = 3
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Skip the first quarter: both start from the same fresh index.
		q := len(res.Accuracies) / 4
		return missRate(res.Accuracies[q:])
	}
	dirq := run(FixedDelta)
	static := run(StaticIndex)
	if static <= dirq*1.5 {
		t.Fatalf("static index miss rate %v not clearly worse than DirQ's %v", static, dirq)
	}
}

func TestStaticIndexSendsNoLateUpdates(t *testing.T) {
	cfg := small()
	cfg.Mode = StaticIndex
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All update traffic must predate the freeze (bucket 0 only, since
	// warmup is 40 epochs and buckets are 100 wide).
	for i, v := range res.UpdateTxPerBucket {
		if i > 0 && v > 0 {
			t.Fatalf("bucket %d has %v updates after the freeze", i, v)
		}
	}
	if res.UpdateTxPerBucket[0] == 0 {
		t.Fatal("no index-build updates at all")
	}
}
