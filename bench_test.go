package dirq

// One benchmark per paper artefact (Fig. 5(a), Fig. 5(b), Fig. 6, Fig. 7,
// the §5 analytical table, and the headline summary), each at a reduced
// scale suitable for `go test -bench=.`; the full-scale regeneration runs
// via `go run ./cmd/dirqexp`. Reported custom metrics carry the headline
// quantities (cost fraction vs flooding, overshoot). Ablation benches
// cover the design choices DESIGN.md calls out, and micro-benches cover
// the hot substrate paths.

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lmac"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/sensordata"
	"repro/internal/sim"
	"repro/internal/topology"
)

// benchOptions keeps figure benches affordable. Workers is pinned to 1 so
// the per-figure benches measure single-run cost; the *Parallel variants
// below measure the worker-pool speedup.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: 1, NumNodes: 30, Epochs: 800, Workers: 1}
}

func benchScenario() scenario.Config {
	cfg := scenario.Default()
	cfg.NumNodes = 30
	cfg.Epochs = 800
	return cfg
}

func BenchmarkFig5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchOptions(), 0.4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[len(r.Rows)-1].PctShouldNot, "wrong%@δ9")
	}
}

func BenchmarkFig5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchOptions(), 0.6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[len(r.Rows)-1].PctShouldNot, "wrong%@δ9")
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchOptions(), 0.4)
		if err != nil {
			b.Fatal(err)
		}
		means := r.SteadyStateMeans()
		b.ReportMetric(means["delta=ATC"], "ATCupd/100ep")
		b.ReportMetric(r.UmaxPerHour, "Umax/hr")
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchOptions(), 0.2)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Series {
			if s.Label == "delta=ATC" {
				b.ReportMetric(s.Mean, "ATCovershoot%")
			}
		}
	}
}

func BenchmarkAnalytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Analytic([]int{2, 3, 4, 8}, []int{1, 2, 3, 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Table().Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Headline(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].CostFraction, "cost/flood@20%")
	}
}

// BenchmarkFig5aParallel is BenchmarkFig5a with the worker pool opened to
// every CPU: the sweep's nine independent δ runs fan out concurrently.
// Compare ns/op against BenchmarkFig5a for the engine speedup.
func BenchmarkFig5aParallel(b *testing.B) {
	o := benchOptions()
	o.Workers = runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(o, 0.4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllExperimentsParallel regenerates every artefact with whole
// experiments (and their inner sweeps) running concurrently.
func BenchmarkAllExperimentsParallel(b *testing.B) {
	o := benchOptions()
	o.Workers = runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllExperimentsSequential is the Workers=1 baseline for
// BenchmarkAllExperimentsParallel.
func BenchmarkAllExperimentsSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(benchOptions(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches: design choices called out in DESIGN.md ---

// BenchmarkAblationZeroDelta disables hysteresis/suppression entirely
// (δ=0): every reading change propagates, maximizing accuracy and update
// cost. Compares against the default δ=5 % run.
func BenchmarkAblationZeroDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchScenario()
		cfg.FixedPct = 0
		res, err := scenario.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CostFraction, "cost/flood")
		b.ReportMetric(res.Summary.MeanOvershoot, "overshoot%")
	}
}

// BenchmarkAblationFeedforwardOnly runs the ATC without its feedback term,
// isolating the level-crossing feedforward model's budget-tracking error.
func BenchmarkAblationFeedforwardOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchScenario()
		cfg.Mode = scenario.ATC
		cfg.ATCFeedbackOff = true
		res, err := scenario.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CostFraction, "cost/flood")
	}
}

// BenchmarkAblationATCFull is the feedback-enabled counterpart of
// BenchmarkAblationFeedforwardOnly.
func BenchmarkAblationATCFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchScenario()
		cfg.Mode = scenario.ATC
		res, err := scenario.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CostFraction, "cost/flood")
	}
}

// BenchmarkAblationLossyChannel measures DirQ under 5 % packet loss.
func BenchmarkAblationLossyChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchScenario()
		cfg.PacketLoss = 0.05
		res, err := scenario.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary.MeanOvershoot, "overshoot%")
	}
}

// --- Micro-benches on substrate hot paths ---

func BenchmarkEventQueue(b *testing.B) {
	e := sim.NewEngine()
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := e.Now() + sim.Time(rng.Intn(64)+1)
		e.Schedule(at, func() {})
		if e.Pending() > 1024 {
			for e.Pending() > 0 {
				e.Step()
			}
		}
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := sim.NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRangeTableObserve(b *testing.B) {
	rt := core.NewRangeTable()
	rng := sim.NewRNG(2)
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Range(0, 50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.ObserveReading(vals[i&1023], 1.5)
	}
}

func BenchmarkRangeTableAggregate(b *testing.B) {
	rt := core.NewRangeTable()
	for c := 0; c < 8; c++ {
		rt.SetChild(topology.NodeID(c+1), core.Tuple{Min: float64(c), Max: float64(c + 2)})
	}
	rt.ObserveReading(5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rt.Aggregate(); !ok {
			b.Fatal("empty aggregate")
		}
	}
}

func BenchmarkFieldGeneratorStep(b *testing.B) {
	rng := sim.NewRNG(3)
	pos := make([]topology.Position, 50)
	for i := range pos {
		pos[i] = topology.Position{X: rng.Range(0, 100), Y: rng.Range(0, 100)}
	}
	gen := sensordata.NewGenerator(pos, rng.Stream("data"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Step()
	}
}

func BenchmarkLMACFrame(b *testing.B) {
	rng := sim.NewRNG(4)
	g, err := topology.PlaceRandom(topology.DefaultPlacement(), rng)
	if err != nil {
		b.Fatal(err)
	}
	engine := sim.NewEngine()
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	mac, err := lmac.New(engine, ch)
	if err != nil {
		b.Fatal(err)
	}
	mac.Init()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mac.RunFrame()
	}
}

// BenchmarkRadioBroadcast: one flood-class broadcast from the root of a
// 4-ary, depth-4 tree.
func BenchmarkRadioBroadcast(b *testing.B) {
	g, _, err := topology.BuildKaryTree(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Broadcast(topology.Root, radio.ClassFlood, nil)
	}
}

func BenchmarkGroundTruthResolve(b *testing.B) {
	rng := sim.NewRNG(5)
	g, err := topology.PlaceRandom(topology.DefaultPlacement(), rng.Stream("p"))
	if err != nil {
		b.Fatal(err)
	}
	tree, err := topology.BuildSpanningTree(g, topology.Root, 8, 10)
	if err != nil {
		b.Skip("caps too tight for this draw")
	}
	pos := make([]topology.Position, g.Len())
	for i := range pos {
		pos[i] = g.Pos(topology.NodeID(i))
	}
	gen := sensordata.NewGenerator(pos, rng.Stream("d"))
	mounted := sensordata.AssignAllTypes(g.Len())
	q := query.Query{Type: sensordata.Temperature, Lo: 10, Hi: 25}
	val := func(id topology.NodeID) float64 { return gen.Value(id, sensordata.Temperature) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query.Resolve(q, tree, mounted, val)
	}
}

func BenchmarkWorkloadNext(b *testing.B) {
	rng := sim.NewRNG(6)
	g, err := topology.PlaceRandom(topology.DefaultPlacement(), rng.Stream("p"))
	if err != nil {
		b.Fatal(err)
	}
	tree, err := topology.BuildSpanningTree(g, topology.Root, 8, 10)
	if err != nil {
		b.Skip("caps too tight for this draw")
	}
	pos := make([]topology.Position, g.Len())
	for i := range pos {
		pos[i] = g.Pos(topology.NodeID(i))
	}
	gen := sensordata.NewGenerator(pos, rng.Stream("d"))
	mounted := sensordata.AssignAllTypes(g.Len())
	w, err := query.NewWorkload(0.4, rng.Stream("w"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Next(gen, tree, mounted)
	}
}

func BenchmarkScenarioEpoch(b *testing.B) {
	// Amortized per-epoch cost of the full stack at paper scale.
	cfg := scenario.Default()
	cfg.Epochs = int64(b.N) + 100
	r, err := scenario.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	r.Run()
}

func BenchmarkMetricsEval(b *testing.B) {
	rec := &core.QueryRecord{
		Truth:    query.GroundTruth{Should: map[topology.NodeID]bool{}},
		Received: map[topology.NodeID]bool{},
		Sources:  map[topology.NodeID]bool{},
	}
	for i := 1; i < 30; i++ {
		rec.Truth.Should[topology.NodeID(i)] = true
		rec.Received[topology.NodeID(i+5)] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Eval(rec, 50)
	}
}

// BenchmarkAblationStaticIndex freezes range updates after warm-up — the
// SRT-style static-index baseline of §2. Compare its miss rate against
// the live-updating runs.
func BenchmarkAblationStaticIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchScenario()
		cfg.Mode = scenario.StaticIndex
		cfg.FixedPct = 3
		res, err := scenario.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		missed, should := 0, 0
		for _, a := range res.Accuracies {
			missed += a.NumMissed
			should += a.NumShould
		}
		if should > 0 {
			b.ReportMetric(100*float64(missed)/float64(should), "miss%")
		}
	}
}
