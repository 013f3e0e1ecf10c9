// Command dirqsim runs a single DirQ simulation scenario and prints a
// summary: accuracy, update traffic, and cost relative to flooding.
//
// Usage:
//
//	dirqsim [-nodes 50] [-epochs 20000] [-coverage 0.4] [-mode fixed|atc]
//	        [-delta 5] [-rho 0.4] [-seed 1] [-hetero] [-loss 0] [-v] [-json]
//	        [-script file.json] [-area 0] [-depth 0] [-naive]
//
// Above 50 nodes the deployment area and tree depth cap auto-scale to
// keep the paper's node density (-area / -depth override), so
// `dirqsim -nodes 1000` runs a realistic thousand-node field out of the
// box. -naive disables the activity-gated epoch engine — outputs are
// byte-identical, only slower; it exists for timing comparisons.
//
// -json replaces the human-readable summary with one machine-readable
// JSON object (the -csv counterpart on dirqexp).
//
// -script attaches a scenario-dynamics timeline (internal/script; schema
// in the README's "Scripting scenarios"): the script owns the query
// workload and fires node kills, sensor regime shifts/drift, workload
// bursts and threshold retuning at exact epochs. The summary then gains
// the per-window metrics between events and the repair record of every
// scripted fault; with -json the whole report is machine-readable and —
// because nothing in it depends on wall-clock — byte-identical across
// runs of the same scenario (CI diffs two runs to prove it).
//
// -telemetry FILE ("-" = stdout) attaches a metrics registry and emits an
// epoch-trace: one NDJSON line per reporting bucket (BucketEpochs wide)
// with the window's deltas of every counter and histogram plus gauge
// levels — engine events, field evaluations, LMAC frame kinds, radio
// traffic, active-set sizes. Telemetry is inert (the summary is
// byte-identical with or without it) and the trace itself is
// deterministic: same seed, same NDJSON bytes (CI diffs two runs).
// Incompatible with -script, which owns the stepping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	dirq "repro"
	"repro/internal/script"
	"repro/internal/telemetry"
)

// jsonSummary is the machine-readable form of one run, emitted by -json.
type jsonSummary struct {
	Nodes           int     `json:"nodes"`
	Epochs          int64   `json:"epochs"`
	Seed            uint64  `json:"seed"`
	Mode            string  `json:"mode"`
	DeltaPct        float64 `json:"delta_pct,omitempty"`
	Rho             float64 `json:"rho,omitempty"`
	Coverage        float64 `json:"coverage"`
	TreeDepth       int     `json:"tree_depth"`
	TreeInternal    int     `json:"tree_internal"`
	QueriesInjected int     `json:"queries_injected"`
	PctShould       float64 `json:"pct_should"`
	PctReceived     float64 `json:"pct_received"`
	PctSources      float64 `json:"pct_sources"`
	MeanOvershoot   float64 `json:"mean_overshoot_pct"`
	QueryCost       int64   `json:"query_cost"`
	UpdateCost      int64   `json:"update_cost"`
	UpdateMessages  int64   `json:"update_messages"`
	EstimateCost    int64   `json:"estimate_cost"`
	FloodCost       int64   `json:"flood_cost"`
	CostFraction    float64 `json:"cost_fraction"`
	UmaxPerHour     float64 `json:"umax_per_hour"`
	// Script carries the scenario-dynamics report for -script runs.
	Script *script.Report `json:"script,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dirqsim: ")

	cfg := dirq.DefaultScenario()
	nodes := flag.Int("nodes", cfg.NumNodes, "network size including the root")
	epochs := flag.Int64("epochs", cfg.Epochs, "simulation length in epochs")
	coverage := flag.Float64("coverage", cfg.Coverage, "target fraction of nodes involved per query")
	mode := flag.String("mode", "fixed", "threshold mode: fixed or atc")
	delta := flag.Float64("delta", cfg.FixedPct, "fixed threshold in percent of sensor span")
	rho := flag.Float64("rho", cfg.Rho, "ATC update-budget fraction of the flooding headroom")
	seed := flag.Uint64("seed", cfg.Seed, "random seed")
	hetero := flag.Bool("hetero", false, "heterogeneous sensor complements")
	loss := flag.Float64("loss", 0, "packet loss probability")
	area := flag.Float64("area", 0, "deployment area side length (0 = 100, auto-scaled with -nodes above 50)")
	depth := flag.Int("depth", 0, "tree depth cap (0 = 10, auto-scaled with -nodes above 50)")
	naive := flag.Bool("naive", false, "disable activity gating (the pre-gating epoch loop; identical output, for timing comparisons)")
	interval := flag.Int64("interval", cfg.QueryInterval, "epochs between queries")
	verbose := flag.Bool("v", false, "print per-bucket update counts")
	traceN := flag.Int("trace", 0, "print the last N protocol events")
	asJSON := flag.Bool("json", false, "emit a machine-readable JSON summary instead of text")
	scriptPath := flag.String("script", "", "scenario-dynamics script driving the run")
	telePath := flag.String("telemetry", "", `emit a per-bucket epoch-trace NDJSON to this file ("-" = stdout)`)
	flag.Parse()

	// Above the paper's 50 nodes the default area and depth cap auto-scale
	// to keep node density constant (see scenario.ScaleDefault); explicit
	// -area / -depth override.
	cfg = dirq.ScaleScenario(*nodes)
	if *area > 0 {
		cfg.Width, cfg.Height = *area, *area
	}
	if *depth > 0 {
		cfg.MaxDepth = *depth
	}
	cfg.DisableActivityGating = *naive
	cfg.NumNodes = *nodes
	cfg.Epochs = *epochs
	cfg.Coverage = *coverage
	cfg.FixedPct = *delta
	cfg.Rho = *rho
	cfg.Seed = *seed
	cfg.Heterogeneous = *hetero
	cfg.PacketLoss = *loss
	cfg.QueryInterval = *interval
	switch *mode {
	case "fixed":
		cfg.Mode = dirq.FixedDelta
	case "atc":
		cfg.Mode = dirq.ATC
	default:
		log.Fatalf("unknown -mode %q (want fixed or atc)", *mode)
	}

	if *traceN > 0 {
		cfg.TraceCapacity = *traceN
	}

	var report *script.Report
	if *scriptPath != "" {
		// Attach the script as the run's driver but build through the
		// normal path, so the runner (and with it -trace) stays available.
		sc, err := script.Load(*scriptPath)
		if err != nil {
			log.Fatal(err)
		}
		p, err := script.NewPlayer(sc)
		if err != nil {
			log.Fatal(err)
		}
		cfg.DisableWorkload = true
		cfg.Script = p
		report = p.Report()
	}
	var reg *telemetry.Registry
	if *telePath != "" {
		if *scriptPath != "" {
			log.Fatal("-telemetry and -script are mutually exclusive (the script owns the stepping)")
		}
		reg = telemetry.NewRegistry()
		cfg.Telemetry = reg
	}
	runner, err := dirq.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var res *dirq.Result
	if reg != nil {
		res, err = runTraced(runner, reg, *telePath)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		res = runner.Run()
	}

	if *asJSON {
		s := jsonSummary{
			Nodes:           cfg.NumNodes,
			Epochs:          cfg.Epochs,
			Seed:            cfg.Seed,
			Mode:            cfg.Mode.String(),
			Coverage:        cfg.Coverage,
			TreeDepth:       res.TreeDepth,
			TreeInternal:    res.TreeInternal,
			QueriesInjected: res.QueriesInjected,
			PctShould:       res.Summary.PctShould,
			PctReceived:     res.Summary.PctReceived,
			PctSources:      res.Summary.PctSources,
			MeanOvershoot:   res.Summary.MeanOvershoot,
			QueryCost:       res.QueryCost.Total(),
			UpdateCost:      res.UpdateCost.Total(),
			UpdateMessages:  res.UpdateCost.Tx,
			EstimateCost:    res.EstimateCost.Total(),
			FloodCost:       res.FloodCost,
			CostFraction:    res.CostFraction,
			UmaxPerHour:     res.UmaxPerHour,
		}
		switch cfg.Mode {
		case dirq.FixedDelta:
			s.DeltaPct = cfg.FixedPct
		case dirq.ATC:
			s.Rho = cfg.Rho
		}
		s.Script = report
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("DirQ simulation: %d nodes, %d epochs, coverage %.0f%%, mode %s",
		cfg.NumNodes, cfg.Epochs, cfg.Coverage*100, cfg.Mode)
	if cfg.Mode == dirq.FixedDelta {
		fmt.Printf(" (delta %.1f%%)", cfg.FixedPct)
	}
	fmt.Println()
	fmt.Printf("tree: depth %d, %d internal nodes\n", res.TreeDepth, res.TreeInternal)
	fmt.Printf("queries injected:        %d\n", res.QueriesInjected)
	fmt.Printf("should receive (mean):   %.1f%% of nodes\n", res.Summary.PctShould)
	fmt.Printf("did receive (mean):      %.1f%% of nodes\n", res.Summary.PctReceived)
	fmt.Printf("sources (mean):          %.1f%% of nodes\n", res.Summary.PctSources)
	fmt.Printf("overshoot (mean):        %.2f%% of nodes\n", res.Summary.MeanOvershoot)
	fmt.Printf("query cost:              %d units\n", res.QueryCost.Total())
	fmt.Printf("update cost:             %d units (%d messages)\n", res.UpdateCost.Total(), res.UpdateCost.Tx)
	fmt.Printf("estimate cost:           %d units\n", res.EstimateCost.Total())
	fmt.Printf("flooding baseline:       %d units\n", res.FloodCost)
	fmt.Printf("cost vs flooding:        %.1f%%  (paper: 45%%-55%% with ATC)\n", res.CostFraction*100)
	fmt.Printf("Umax/Hr reference:       %.0f update msgs\n", res.UmaxPerHour)

	if report != nil {
		fmt.Printf("\nscript %q: %d events, %d faults\n", report.Name, len(report.Events), len(report.Faults))
		for _, e := range report.Events {
			status := "applied"
			if !e.Applied {
				status = "skipped: " + e.Note
			}
			fmt.Printf("  %-40s %s\n", e.Event, status)
		}
		for _, f := range report.Faults {
			if f.RepairedAt >= 0 {
				fmt.Printf("  fault @%d node %d: subtree of %d repaired in %d epochs\n",
					f.At, f.Node, f.Detached, f.RepairEpochs)
			} else {
				fmt.Printf("  fault @%d node %d: subtree of %d NOT repaired (%d stranded network-wide)\n",
					f.At, f.Node, f.Detached, f.OrphansLeft)
			}
		}
		fmt.Println("\nper-window metrics between events:")
		fmt.Printf("  %12s %8s %9s %10s %11s %10s\n",
			"window", "queries", "%should", "%received", "overshoot%", "cost/flood")
		for _, w := range report.Windows {
			fmt.Printf("  %5d-%-6d %8d %9.1f %10.1f %11.2f %10.3f\n",
				w.From, w.To, w.Queries, w.PctShould, w.PctReceived, w.MeanOvershootPct, w.CostFraction)
		}
	}
	if *verbose {
		fmt.Println("\nupdate messages per bucket:")
		for i, v := range res.UpdateTxPerBucket {
			fmt.Printf("  epoch %6d: %.0f\n", (int64(i)+1)*cfg.BucketEpochs, v)
		}
	}
	if *traceN > 0 && runner.Trace != nil {
		fmt.Printf("\nlast %d protocol events (%d total recorded):\n",
			*traceN, runner.Trace.Total())
		if err := runner.Trace.Dump(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	os.Exit(0)
}

// traceLine is one NDJSON record of the -telemetry epoch trace. Metrics
// holds the window's deltas of every counter and histogram (count and
// sum) plus gauge levels; json.Marshal sorts the map keys, so the same
// seed reproduces the same bytes.
type traceLine struct {
	Schema  string             `json:"schema"`
	From    int64              `json:"from"`
	To      int64              `json:"to"`
	Metrics map[string]float64 `json:"metrics"`
}

// runTraced drives the runner one reporting bucket at a time, emitting a
// traceLine per window, and returns the normal end-of-run Result.
func runTraced(runner *dirq.Runner, reg *telemetry.Registry, path string) (*dirq.Result, error) {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	runner.Start()
	window := runner.Cfg.BucketEpochs
	if window <= 0 {
		window = 100
	}
	prev := reg.Snapshot()
	for !runner.Done() {
		from := runner.Epoch()
		runner.Step(window)
		cur := reg.Snapshot()
		line := traceLine{
			Schema:  "dirq/epoch-trace/v1",
			From:    from,
			To:      runner.Epoch(),
			Metrics: windowMetrics(prev, cur),
		}
		if err := enc.Encode(line); err != nil {
			return nil, err
		}
		prev = cur
	}
	return runner.Snapshot(), nil
}

// traceKey renders one series' identity ({name} or {name{labels}}).
func traceKey(s telemetry.SeriesSnapshot) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, s.Labels[k]))
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

// windowMetrics computes one window's movement: counters and histograms
// as deltas against the previous snapshot, gauges as absolute levels.
func windowMetrics(prev, cur []telemetry.SeriesSnapshot) map[string]float64 {
	base := make(map[string]telemetry.SeriesSnapshot, len(prev))
	for _, s := range prev {
		base[traceKey(s)] = s
	}
	out := make(map[string]float64, len(cur))
	for _, s := range cur {
		k := traceKey(s)
		p := base[k] // zero value when the series is new this window
		switch s.Kind {
		case telemetry.KindCounter:
			out[k] = s.Value - p.Value
		case telemetry.KindGauge:
			out[k] = s.Value
		case telemetry.KindHistogram:
			out[k+"_count"] = float64(s.Count - p.Count)
			out[k+"_sum"] = s.Sum - p.Sum
		}
	}
	return out
}
