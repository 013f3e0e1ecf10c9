// Command dirqbench measures the repository's hot paths and records the
// results as a machine-readable BENCH_<rev>.json, so the project's
// performance trajectory is data rather than anecdote.
//
// It runs four kinds of benchmarks:
//
//   - workloads: complete simulation runs (the paper's headline setup under
//     fixed-δ, ATC and the flooding baseline) and experiment regenerations
//     (fig6, headline table), reporting throughput as epochs/sec and
//     simulated node-epochs/sec alongside ns/op and allocs/op;
//   - scale: the large-N frontier — fixed-δ runs at 50 through 100 000
//     nodes. Scale entries time the steady state only (construction runs
//     under a stopped timer) and record construction separately as
//     setup_ns_per_op plus bytes_per_node, the built simulation's live
//     heap per node. Sibling: an ungated ("naive") run at 1000 nodes
//     whose ratio to the gated run is the activity-gating speedup;
//   - qps: the query-path throughput frontier — concurrent in-process
//     clients against a live serve.Manager across a (shards ×
//     settle-window × clients) grid, recording queries/sec, p50/p99
//     submit-to-answer latency, and error/shed counts (see qps.go);
//   - substrate micro-benches: event-queue schedule/dispatch, radio
//     broadcast, one LMAC TDMA frame, range-table observation, and the
//     amortized cost of one full-stack scenario epoch.
//
// Usage:
//
//	dirqbench [-quick] [-n 3] [-bench regexp] [-rev auto] [-out path]
//	dirqbench -bench 'scale/fixed-1000' -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	dirqbench -check BENCH_x.json   # validate a previously written file
//	dirqbench -list                 # print benchmark names and exit
//	dirqbench -compare BENCH_base.json [-tolerance 0.30] [candidate.json]
//
// -cpuprofile / -memprofile write pprof profiles covering the selected
// benchmarks (use -bench to focus on one), so perf work starts from a
// profile instead of a guess: `go tool pprof cpu.pb.gz`.
//
// -compare is the regression gate CI runs against the committed baseline:
// it loads the baseline, obtains a candidate (the positional file if
// given, otherwise a fresh measurement at the baseline's own scale), and
// compares epochs/sec for every workload and scale benchmark present in
// both at the same nodes/epochs scale, plus — for qps/ grid points at
// identical (shards, settle, clients) coordinates — a qps floor and a
// p99-latency ceiling derived from the same tolerance. Scale benchmarks
// additionally gate on memory: bytes_per_node may not exceed the
// baseline's by more than the tolerance (plus a small absolute slack),
// and at 5000+ nodes it may never exceed the 4 KB/node absolute budget
// regardless of what the baseline recorded. If anything
// regresses by more than -tolerance (fractional, default 0.30) — or
// nothing is comparable — the exit status is nonzero. Substrate
// micro-benches are reported for context but do not gate: they are too
// fast to be stable across CI hardware.
//
// Each benchmark executes -n times through testing.Benchmark; the fastest
// run is reported, with its own allocation stats (ns/op, bytes/op and
// allocs/op always come from the same run, so entries stay internally
// consistent however warm caches and pools are when that run happens).
// -quick shrinks the workloads (30 nodes, 800 epochs) so CI can
// keep BENCH_ci.json fresh on every push; full scale is the paper's §7
// setup (50 nodes, 20 000 epochs).
//
// The output schema is documented in PERFORMANCE.md and validated by
// -check (also used by CI to fail on malformed output).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lmac"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// SchemaID identifies the BENCH_*.json format; bump on breaking changes.
const SchemaID = "dirq/bench/v1"

// File is the top-level BENCH_*.json document.
type File struct {
	Schema    string `json:"schema"`
	Rev       string `json:"rev"`
	Timestamp string `json:"timestamp"` // RFC 3339, UTC
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GoMaxProcs is runtime.GOMAXPROCS(0) at measurement time, alongside
	// CPUs (the host's runtime.NumCPU): together they make multi-core
	// claims checkable from the artifact alone. Absent in files written
	// before rev pr9.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// MemTotalBytes is the host's physical memory (MemTotal from
	// /proc/meminfo; 0 where unavailable). Recorded so the bytes-per-node
	// column can be read against what the measuring host could actually
	// hold — a 2.6 GB 100k-node footprint means something different on an
	// 8 GB runner than on a 256 GB build box. Absent before rev pr10.
	MemTotalBytes int64   `json:"mem_total_bytes,omitempty"`
	Quick         bool    `json:"quick"`
	Iterations    int     `json:"iterations"`
	Benchmarks    []Entry `json:"benchmarks"`
}

// Entry is one benchmark's result. Nodes/Epochs (and the derived
// throughput fields) are present only for workload benches that simulate
// a network over time.
type Entry struct {
	Name        string  `json:"name"`
	Group       string  `json:"group"` // "workload", "scale", "qps" or "micro"
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Runs        int     `json:"runs"`

	Nodes            int     `json:"nodes,omitempty"`
	Epochs           int64   `json:"epochs,omitempty"`
	EpochsPerSec     float64 `json:"epochs_per_sec,omitempty"`
	NodeEpochsPerSec float64 `json:"node_epochs_per_sec,omitempty"`

	// Setup/steady split, present only for the scale/ group. Scale
	// entries time the steady state alone (NsPerOp excludes construction,
	// which runs under a stopped timer), so EpochsPerSec measures the
	// per-epoch engine and not the build. SetupNsPerOp is one untimed
	// construction of the same config, and BytesPerNode is its live heap
	// footprint after a warmup step, per node — the number the large-N
	// budget gate bounds. Absent in files written before rev pr10.
	SetupNsPerOp float64 `json:"setup_ns_per_op,omitempty"`
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`

	// Query-path fields, present only for the qps/ group: the grid
	// coordinates (Shards × SettleEpochs × Clients), answered queries
	// per second of wall time, submit-to-answer latency percentiles, and
	// how many submissions errored or were shed with ErrOverloaded. For
	// qps entries NsPerOp is the mean submit-to-answer latency.
	Shards       int     `json:"shards,omitempty"`
	Clients      int     `json:"clients,omitempty"`
	SettleEpochs int64   `json:"settle_epochs,omitempty"`
	QPS          float64 `json:"qps,omitempty"`
	P50Ms        float64 `json:"p50_ms,omitempty"`
	P99Ms        float64 `json:"p99_ms,omitempty"`
	QueryErrors  int64   `json:"query_errors,omitempty"`
	QueriesShed  int64   `json:"queries_shed,omitempty"`

	// Telemetry carries informational counter totals (and histogram
	// counts) from one extra telemetry-instrumented run of the same
	// workload: where the work goes per benchmark, not a timing input.
	Telemetry map[string]int64 `json:"telemetry,omitempty"`
}

// spec declares one benchmark.
type spec struct {
	name   string
	group  string
	nodes  int   // simulated network size (workloads only)
	epochs int64 // simulated horizon (workloads only)
	fn     func(b *testing.B)
	// snap, when set, produces the Entry's informational telemetry
	// totals from one non-timed instrumented run.
	snap func() (map[string]int64, error)
	// qps, when set, replaces fn: the spec is a query-path grid point
	// measured by its own wall-clock harness (see qps.go), and point
	// carries its grid coordinates into the Entry.
	qps   func() (qpsResult, error)
	point qpsPoint
	// setup, when set (scale benches), measures one untimed construction:
	// wall time and live bytes per node for the Entry's setup columns.
	setup func() (nsPerOp, bytesPerNode float64, err error)
}

// scale returns the benchmark scale: the paper's §7 setup, or the reduced
// -quick variant.
func scale(quick bool) (nodes int, epochs int64) {
	if quick {
		return 30, 800
	}
	return 50, 20000
}

// scalePoints are the large-N workload sizes. Small rungs keep the
// original constant-node-epochs sizing (1M full scale); the 25k and 100k
// rungs run much longer horizons (12.5M and 60M node-epochs) — at their
// old 40 and 10 epochs those rungs spent most of their wall time
// constructing the network, so their "throughput" mostly measured the
// build. With steady state timed on its own (runScale) and these
// horizons, the steady phase is ≥ 80% of each full-scale iteration's
// wall time and the column actually measures epochs.
var scalePoints = []struct {
	nodes        int
	epochs       int64
	quickEpochs  int64
	includeNaive bool
}{
	{nodes: 50, epochs: 20000, quickEpochs: 3000},
	{nodes: 250, epochs: 4000, quickEpochs: 600},
	{nodes: 1000, epochs: 1000, quickEpochs: 150, includeNaive: true},
	{nodes: 5000, epochs: 1000, quickEpochs: 30},
	{nodes: 25000, epochs: 500, quickEpochs: 20},
	{nodes: 100000, epochs: 600, quickEpochs: 5},
}

// scaleScenario builds one large-N workload config: constant node density
// (scenario.ScaleDefault), fixed-δ mode, the paper's query cadence.
func scaleScenario(nodes int, epochs int64, naive bool) scenario.Config {
	cfg := scenario.ScaleDefault(nodes)
	cfg.Epochs = epochs
	cfg.DisableActivityGating = naive
	return cfg
}

// scenarioCfg builds the workload scenario at the requested scale.
func scenarioCfg(quick bool, mode scenario.ThresholdMode) scenario.Config {
	cfg := scenario.Default()
	cfg.NumNodes, cfg.Epochs = scale(quick)
	cfg.Mode = mode
	return cfg
}

// measureSetup builds cfg once, untimed, and reports the construction
// wall time plus the built simulation's live heap per node. The footprint
// is the GC-settled HeapAlloc delta around a build plus one warmup epoch,
// so transient construction garbage does not count against the budget but
// every retained per-node structure (windows, escape calendars, range
// tables, MAC frame state, event queue) does.
func measureSetup(cfg scenario.Config) (nsPerOp, bytesPerNode float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r, err := scenario.Build(cfg)
	if err != nil {
		return 0, 0, err
	}
	nsPerOp = float64(time.Since(t0).Nanoseconds())
	r.Start()
	r.Step(1)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	live := float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	runtime.KeepAlive(r)
	if cfg.NumNodes > 0 && live > 0 {
		bytesPerNode = live / float64(cfg.NumNodes)
	}
	return nsPerOp, bytesPerNode, nil
}

// telemetrySnapshot runs cfg once with a fresh registry and flattens the
// counters (and histogram counts) into the Entry's informational map.
func telemetrySnapshot(cfg scenario.Config) (map[string]int64, error) {
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	if _, err := scenario.Run(cfg); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range reg.Snapshot() {
		key := s.Name
		if len(s.Labels) > 0 {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%q", k, s.Labels[k]))
			}
			key += "{" + strings.Join(parts, ",") + "}"
		}
		switch s.Kind {
		case telemetry.KindHistogram:
			out[key+"_count"] = s.Count
		default:
			out[key] = int64(s.Value)
		}
	}
	return out, nil
}

// specs assembles the benchmark set. Workload and scale benches run with
// a telemetry registry attached, so the recorded throughput is the
// instrumented build's — the overhead the acceptance gate bounds.
func specs(quick bool) []spec {
	nodes, epochs := scale(quick)
	expOpts := experiments.Options{Seed: 1, NumNodes: nodes, Epochs: epochs, Workers: 1,
		Telemetry: telemetry.NewRegistry()}

	runScenario := func(b *testing.B, mode scenario.ThresholdMode, flood bool) {
		reg := telemetry.NewRegistry()
		for i := 0; i < b.N; i++ {
			cfg := scenarioCfg(quick, mode)
			cfg.DisseminateByFlooding = flood
			cfg.Telemetry = reg
			if _, err := scenario.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}

	// runScale times the steady state alone: construction happens under a
	// stopped timer (on a recycled engine, as the sweeps do), so the
	// recorded epochs/sec is the per-epoch engine's and a large-N point is
	// not flattered or damned by its one-off build. Setup cost is measured
	// separately (measureSetup) and recorded in its own columns.
	runScale := func(b *testing.B, cfg scenario.Config) {
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		engine := sim.NewEngine()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r, err := scenario.BuildWithEngine(cfg, engine)
			if err != nil {
				b.Fatal(err)
			}
			// GC-settle before timing so each rung's GC behaviour depends
			// only on its own live set, not on how much garbage earlier
			// specs left behind (a large inherited heap raises the GC
			// trigger and flatters whichever small rung runs next).
			runtime.GC()
			b.StartTimer()
			r.Run()
		}
	}
	var scaleSpecs []spec
	for _, sp := range scalePoints {
		ep := sp.epochs
		if quick {
			ep = sp.quickEpochs
		}
		cfg := scaleScenario(sp.nodes, ep, false)
		scaleSpecs = append(scaleSpecs, spec{
			// At full scale the 50-node point equals headline/fixed; it is
			// measured again deliberately so the scale column is a single
			// self-contained family (and at -quick the two differ).
			name: fmt.Sprintf("scale/fixed-%d", sp.nodes), group: "scale",
			nodes: sp.nodes, epochs: ep,
			fn:    func(b *testing.B) { runScale(b, cfg) },
			snap:  func() (map[string]int64, error) { return telemetrySnapshot(cfg) },
			setup: func() (float64, float64, error) { return measureSetup(cfg) },
		})
		if sp.includeNaive {
			ncfg := scaleScenario(sp.nodes, ep, true)
			scaleSpecs = append(scaleSpecs, spec{
				// The ungated build at the same scale: the ratio to its
				// gated sibling is the activity-gating speedup the
				// acceptance gate tracks.
				name: fmt.Sprintf("scale/naive-%d", sp.nodes), group: "scale",
				nodes: sp.nodes, epochs: ep,
				fn:    func(b *testing.B) { runScale(b, ncfg) },
				snap:  func() (map[string]int64, error) { return telemetrySnapshot(ncfg) },
				setup: func() (float64, float64, error) { return measureSetup(ncfg) },
			})
		}
	}

	headlineSnap := func(mode scenario.ThresholdMode, flood bool) func() (map[string]int64, error) {
		return func() (map[string]int64, error) {
			cfg := scenarioCfg(quick, mode)
			cfg.DisseminateByFlooding = flood
			return telemetrySnapshot(cfg)
		}
	}

	all := append([]spec{
		{name: "headline/fixed", group: "workload", nodes: nodes, epochs: epochs,
			fn:   func(b *testing.B) { runScenario(b, scenario.FixedDelta, false) },
			snap: headlineSnap(scenario.FixedDelta, false)},
		{name: "headline/atc", group: "workload", nodes: nodes, epochs: epochs,
			fn:   func(b *testing.B) { runScenario(b, scenario.ATC, false) },
			snap: headlineSnap(scenario.ATC, false)},
		{name: "headline/flood", group: "workload", nodes: nodes, epochs: epochs,
			fn:   func(b *testing.B) { runScenario(b, scenario.FixedDelta, true) },
			snap: headlineSnap(scenario.FixedDelta, true)},
		{name: "experiments/fig6", group: "workload", nodes: nodes, epochs: epochs,
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.Fig6(expOpts, 0.4); err != nil {
						b.Fatal(err)
					}
				}
			}},
		{name: "experiments/headline", group: "workload", nodes: nodes, epochs: epochs,
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.Headline(expOpts); err != nil {
						b.Fatal(err)
					}
				}
			}},
		{name: "scenario/epoch", group: "workload", nodes: nodes, epochs: 1,
			fn: func(b *testing.B) {
				// Amortized per-epoch cost of the full stack: horizon = b.N.
				cfg := scenarioCfg(quick, scenario.FixedDelta)
				cfg.Epochs = int64(b.N) + 100
				r, err := scenario.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				r.Run()
			}},
		{name: "sim/schedule-dispatch", group: "micro",
			fn: func(b *testing.B) {
				e := sim.NewEngine()
				rng := sim.NewRNG(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Schedule(e.Now()+sim.Time(rng.Intn(64)+1), func() {})
					if e.Pending() > 1024 {
						for e.Pending() > 0 {
							e.Step()
						}
					}
				}
			}},
		{name: "radio/broadcast", group: "micro",
			fn: func(b *testing.B) {
				g, _, err := topology.BuildKaryTree(4, 4)
				if err != nil {
					b.Fatal(err)
				}
				ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ch.Broadcast(topology.Root, radio.ClassFlood, nil)
				}
			}},
		{name: "lmac/frame", group: "micro",
			fn: func(b *testing.B) {
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
			}},
		{name: "core/range-observe", group: "micro",
			fn: func(b *testing.B) {
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
			}},
	}, scaleSpecs...)
	return append(all, qpsSpecs(quick)...)
}

// measure runs one spec n times and keeps the fastest run (for qps
// specs: the run with the highest throughput, kept whole so qps and its
// latency percentiles describe the same run).
func measure(s spec, n int) Entry {
	e := Entry{Name: s.name, Group: s.group, Runs: n}
	if s.qps != nil {
		var best qpsResult
		for run := 0; run < n; run++ {
			r, err := s.qps()
			if err != nil {
				log.Fatalf("%s: %v", s.name, err)
			}
			if run == 0 || r.qps() > best.qps() {
				best = r
			}
		}
		e.NsPerOp = best.meanNs
		e.Shards = s.point.shards
		e.Clients = s.point.clients
		e.SettleEpochs = s.point.settle
		e.QPS = best.qps()
		e.P50Ms = float64(best.p50.Nanoseconds()) / 1e6
		e.P99Ms = float64(best.p99.Nanoseconds()) / 1e6
		e.QueryErrors = best.errs
		e.QueriesShed = best.shed
		return e
	}
	for run := 0; run < n; run++ {
		r := testing.Benchmark(s.fn)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		// Keep the fastest run whole — its time AND its allocation stats —
		// so an entry is one run's self-consistent measurement (pooled
		// paths allocate less once warm, so stats can vary across runs).
		if run == 0 || ns < e.NsPerOp {
			e.NsPerOp = ns
			e.BytesPerOp = r.AllocedBytesPerOp()
			e.AllocsPerOp = r.AllocsPerOp()
		}
	}
	if s.nodes > 0 {
		e.Nodes = s.nodes
		e.Epochs = s.epochs
		e.EpochsPerSec = float64(s.epochs) * 1e9 / e.NsPerOp
		e.NodeEpochsPerSec = e.EpochsPerSec * float64(s.nodes)
	}
	if s.setup != nil {
		ns, bpn, err := s.setup()
		if err != nil {
			log.Fatalf("%s: setup measurement: %v", s.name, err)
		}
		e.SetupNsPerOp = ns
		e.BytesPerNode = bpn
	}
	return e
}

// memTotalBytes reports the host's physical memory (MemTotal from
// /proc/meminfo), or 0 where the file is absent or unparsable (non-Linux
// hosts): the env block then simply omits the field.
func memTotalBytes() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "MemTotal:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// detectRev resolves the revision tag for the output file name: the short
// git commit hash when available, "local" otherwise.
func detectRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "local"
	}
	return strings.TrimSpace(string(out))
}

// Validate checks a decoded bench file against the schema invariants.
// This is the contract CI enforces on BENCH_ci.json.
func (f *File) Validate() error {
	if f.Schema != SchemaID {
		return fmt.Errorf("schema %q, want %q", f.Schema, SchemaID)
	}
	if f.Rev == "" {
		return fmt.Errorf("empty rev")
	}
	if _, err := time.Parse(time.RFC3339, f.Timestamp); err != nil {
		return fmt.Errorf("bad timestamp %q: %v", f.Timestamp, err)
	}
	if f.Iterations < 1 {
		return fmt.Errorf("iterations %d < 1", f.Iterations)
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks")
	}
	seen := map[string]bool{}
	for i, b := range f.Benchmarks {
		switch {
		case b.Name == "":
			return fmt.Errorf("benchmark %d: empty name", i)
		case seen[b.Name]:
			return fmt.Errorf("benchmark %d: duplicate name %q", i, b.Name)
		case b.Group != "workload" && b.Group != "micro" && b.Group != "scale" && b.Group != "qps":
			return fmt.Errorf("benchmark %q: unknown group %q", b.Name, b.Group)
		case b.NsPerOp <= 0:
			return fmt.Errorf("benchmark %q: ns_per_op %v <= 0", b.Name, b.NsPerOp)
		case b.AllocsPerOp < 0 || b.BytesPerOp < 0:
			return fmt.Errorf("benchmark %q: negative allocation stats", b.Name)
		case b.Group != "micro" && b.Nodes > 0 && b.EpochsPerSec <= 0:
			return fmt.Errorf("benchmark %q: missing throughput", b.Name)
		case b.Group == "scale" && (b.Nodes <= 0 || b.Epochs <= 0):
			return fmt.Errorf("benchmark %q: scale bench without nodes/epochs", b.Name)
		case b.Group == "qps" && (b.Shards <= 0 || b.Clients <= 0 || b.SettleEpochs <= 0):
			return fmt.Errorf("benchmark %q: qps bench without grid coordinates", b.Name)
		case b.Group == "qps" && b.QPS <= 0:
			return fmt.Errorf("benchmark %q: qps bench without qps", b.Name)
		case b.Group == "qps" && (b.P50Ms <= 0 || b.P99Ms <= 0):
			return fmt.Errorf("benchmark %q: qps bench without latency percentiles", b.Name)
		case b.Group == "qps" && b.P99Ms < b.P50Ms:
			return fmt.Errorf("benchmark %q: p99 %v below p50 %v", b.Name, b.P99Ms, b.P50Ms)
		case b.Group != "qps" && b.QPS != 0:
			return fmt.Errorf("benchmark %q: qps fields on a %s bench", b.Name, b.Group)
		case b.SetupNsPerOp < 0 || b.BytesPerNode < 0:
			return fmt.Errorf("benchmark %q: negative setup stats", b.Name)
		case b.Group != "scale" && (b.SetupNsPerOp != 0 || b.BytesPerNode != 0):
			return fmt.Errorf("benchmark %q: setup fields on a %s bench", b.Name, b.Group)
		}
		seen[b.Name] = true
	}
	return nil
}

// loadFile reads and validates one BENCH_*.json.
func loadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: not valid JSON: %v", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

func check(path string) error {
	f, err := loadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: valid (%s, rev %s, %d benchmarks)\n", path, f.Schema, f.Rev, len(f.Benchmarks))
	return nil
}

// measureAll runs every spec, logging progress to stderr.
func measureAll(all []spec, iters int) []Entry {
	var out []Entry
	for _, s := range all {
		fmt.Fprintf(os.Stderr, "running %-24s ", s.name)
		e := measure(s, iters)
		var line string
		if e.QPS > 0 {
			line = fmt.Sprintf("%12.0f qps    p50 %7.2f ms  p99 %7.2f ms  errors %d  shed %d",
				e.QPS, e.P50Ms, e.P99Ms, e.QueryErrors, e.QueriesShed)
		} else {
			line = fmt.Sprintf("%12.0f ns/op %8d allocs/op", e.NsPerOp, e.AllocsPerOp)
			if e.EpochsPerSec > 0 {
				line += fmt.Sprintf("  %10.0f epochs/s  %12.0f node-epochs/s",
					e.EpochsPerSec, e.NodeEpochsPerSec)
			}
			if e.BytesPerNode > 0 {
				line += fmt.Sprintf("  setup %6.0f ms  %6.0f B/node",
					e.SetupNsPerOp/1e6, e.BytesPerNode)
			}
		}
		fmt.Fprintln(os.Stderr, line)
		if s.snap != nil {
			if t, err := s.snap(); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry snapshot for %s failed: %v\n", s.name, err)
			} else {
				e.Telemetry = t
			}
		}
		out = append(out, e)
	}
	return out
}

// p99SlackMs is the absolute grace on the qps p99-latency ceiling: a
// candidate fails the p99 axis only when it exceeds both the fractional
// ceiling and the baseline by this many milliseconds. Measured p99 on a
// busy grid point moves in ~10 ms scheduler-quantum steps run to run;
// the slack absorbs that while still catching the order-of-magnitude
// blowups an unbounded admission queue produces under load.
const p99SlackMs = 50

// Scale benches gate on memory as well as speed. bytesPerNodeBudget is
// the absolute live-heap budget per node (the ladder toward 1M nodes in
// PERFORMANCE.md is priced against it): any scale point of at least
// bytesPerNodeBudgetMinNodes nodes whose candidate bytes_per_node exceeds
// it fails the gate outright, baseline or no baseline. Smaller rungs are
// exempt — fixed per-simulation overhead (engine, registry, channel)
// amortized over a handful of nodes dwarfs the true per-node state.
// bpnSlackBytes is the absolute grace on the relative axis, mirroring
// p99SlackMs: GC-settled footprints wobble a few cache lines run to run,
// and a tight baseline must not turn that wobble into a red gate.
const (
	bytesPerNodeBudget         = 4096
	bytesPerNodeBudgetMinNodes = 5000
	bpnSlackBytes              = 256
)

// compare gates a candidate measurement against a baseline file: any
// workload benchmark whose epochs/sec regressed by more than tolerance
// fails the run. candPath "" means measure a fresh candidate now, at the
// baseline's own scale, so the two sides always simulate the same work.
func compare(basePath, candPath string, tolerance float64, iters int) error {
	if tolerance <= 0 || tolerance >= 1 {
		return fmt.Errorf("-tolerance %v outside (0,1)", tolerance)
	}
	base, err := loadFile(basePath)
	if err != nil {
		return err
	}
	var cand []Entry
	candName := candPath
	if candPath != "" {
		cf, err := loadFile(candPath)
		if err != nil {
			return err
		}
		cand = cf.Benchmarks
	} else {
		candName = "fresh run"
		fmt.Fprintf(os.Stderr, "measuring candidate at baseline scale (quick=%v)\n", base.Quick)
		cand = measureAll(specs(base.Quick), iters)
	}
	byName := map[string]Entry{}
	for _, e := range cand {
		byName[e.Name] = e
	}

	fmt.Printf("bench gate: candidate (%s) vs baseline %s (rev %s), tolerance %.0f%%\n",
		candName, basePath, base.Rev, tolerance*100)
	compared, regressed, missing := 0, 0, 0
	sumRatio := 0.0
	for _, b := range base.Benchmarks {
		c, ok := byName[b.Name]
		switch {
		case !ok:
			// A gating benchmark that vanished from the candidate is a
			// failure, not a skip: a renamed or dropped spec must come with
			// a regenerated baseline, or the gate silently loses coverage.
			if b.Group == "workload" || b.Group == "scale" || b.Group == "qps" {
				fmt.Printf("  %-24s MISSING from candidate\n", b.Name)
				missing++
			} else {
				fmt.Printf("  %-24s SKIP (not in candidate)\n", b.Name)
			}
		case b.Group == "qps":
			// Query-path grid points gate on two axes at once: a qps floor
			// ((1-t) of baseline qps) and a p99-latency ceiling (baseline
			// p99 over (1-t), plus an absolute p99SlackMs grace — a
			// single run's p99 at millisecond scale swings by whole
			// scheduler quanta, so a lucky sub-ms baseline must not turn
			// ordinary jitter into a red gate; a real queueing regression
			// blows past both bounds). Comparable only at identical grid
			// coordinates.
			switch {
			case c.Shards != b.Shards || c.Clients != b.Clients || c.SettleEpochs != b.SettleEpochs:
				fmt.Printf("  %-24s SKIP (grid s%d-w%d-c%d vs baseline s%d-w%d-c%d)\n", b.Name,
					c.Shards, c.SettleEpochs, c.Clients, b.Shards, b.SettleEpochs, b.Clients)
			case c.QPS <= 0 || b.QPS <= 0:
				fmt.Printf("  %-24s SKIP (no qps recorded)\n", b.Name)
			default:
				compared++
				ratio := c.QPS / b.QPS
				sumRatio += ratio
				var bad []string
				if ratio < 1-tolerance {
					bad = append(bad, "qps")
				}
				if b.P99Ms > 0 && c.P99Ms > b.P99Ms/(1-tolerance) && c.P99Ms > b.P99Ms+p99SlackMs {
					bad = append(bad, "p99")
				}
				verdict := "ok"
				if len(bad) > 0 {
					verdict = "REGRESSION(" + strings.Join(bad, "+") + ")"
					regressed++
				}
				fmt.Printf("  %-24s %s  %9.0f -> %9.0f qps (%+.1f%%)  p99 %7.2f -> %7.2f ms\n",
					b.Name, verdict, b.QPS, c.QPS, (ratio-1)*100, b.P99Ms, c.P99Ms)
			}
		case (b.Group != "workload" && b.Group != "scale") || b.EpochsPerSec <= 0:
			// Micro-benches: context only.
			fmt.Printf("  %-24s info  %8.0f -> %8.0f ns/op\n", b.Name, b.NsPerOp, c.NsPerOp)
		case c.Nodes != b.Nodes || c.Epochs != b.Epochs:
			fmt.Printf("  %-24s SKIP (scale %dx%d vs baseline %dx%d)\n",
				b.Name, c.Nodes, c.Epochs, b.Nodes, b.Epochs)
		case c.EpochsPerSec <= 0:
			fmt.Printf("  %-24s SKIP (candidate has no throughput)\n", b.Name)
		default:
			compared++
			ratio := c.EpochsPerSec / b.EpochsPerSec
			sumRatio += ratio
			var bad []string
			if ratio < 1-tolerance {
				bad = append(bad, "epochs/s")
			}
			if b.Group == "scale" && c.BytesPerNode > 0 {
				// Memory axes: relative to baseline (fractional ceiling plus
				// absolute slack, like the qps p99 axis), and the hard
				// per-node budget at large N.
				if b.BytesPerNode > 0 && c.BytesPerNode > b.BytesPerNode/(1-tolerance) &&
					c.BytesPerNode > b.BytesPerNode+bpnSlackBytes {
					bad = append(bad, "bytes/node")
				}
				if c.Nodes >= bytesPerNodeBudgetMinNodes && c.BytesPerNode > bytesPerNodeBudget {
					bad = append(bad, "budget")
				}
			}
			verdict := "ok"
			if len(bad) > 0 {
				verdict = "REGRESSION(" + strings.Join(bad, "+") + ")"
				regressed++
			}
			line := fmt.Sprintf("  %-24s %s  %9.0f -> %9.0f epochs/s (%+.1f%%)",
				b.Name, verdict, b.EpochsPerSec, c.EpochsPerSec, (ratio-1)*100)
			if b.BytesPerNode > 0 || c.BytesPerNode > 0 {
				line += fmt.Sprintf("  %6.0f -> %6.0f B/node", b.BytesPerNode, c.BytesPerNode)
			}
			fmt.Println(line)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no comparable workload/scale/qps benchmarks between candidate and %s — the gate would be vacuous", basePath)
	}
	fmt.Printf("mean throughput delta vs baseline: %+.1f%% across %d benchmarks\n",
		(sumRatio/float64(compared)-1)*100, compared)
	if missing > 0 {
		return fmt.Errorf("%d gating benchmarks from %s are missing in the candidate — regenerate and commit the baseline alongside the spec change", missing, basePath)
	}
	if regressed > 0 {
		return fmt.Errorf("%d of %d workload/scale/qps benchmarks regressed more than %.0f%% vs %s",
			regressed, compared, tolerance*100, basePath)
	}
	fmt.Printf("gate passed: %d workload/scale/qps benchmarks within %.0f%% of baseline\n", compared, tolerance*100)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dirqbench: ")

	quick := flag.Bool("quick", false, "reduced scale (30 nodes, 800 epochs) for CI")
	iters := flag.Int("n", 3, "times to run each benchmark (fastest run is reported)")
	benchRe := flag.String("bench", "", "only run benchmarks matching this regexp")
	rev := flag.String("rev", "auto", "revision tag for the output file (auto = git short hash)")
	out := flag.String("out", "", "output path (default BENCH_<rev>.json)")
	checkPath := flag.String("check", "", "validate an existing bench file and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the selected benchmarks (combine with -bench to focus on one)")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected benchmarks")
	comparePath := flag.String("compare", "", "baseline bench file: gate a candidate (positional arg, or a fresh run) against it")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional epochs/sec regression for -compare")
	list := flag.Bool("list", false, "list benchmark names and exit")
	flag.Parse()

	if *checkPath != "" {
		if err := check(*checkPath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *comparePath != "" {
		if *iters < 1 {
			log.Fatal("-n must be >= 1")
		}
		if err := compare(*comparePath, flag.Arg(0), *tolerance, *iters); err != nil {
			log.Fatal(err)
		}
		return
	}

	all := specs(*quick)
	if *list {
		for _, s := range all {
			fmt.Printf("%-24s %s\n", s.name, s.group)
		}
		return
	}
	if *benchRe != "" {
		re, err := regexp.Compile(*benchRe)
		if err != nil {
			log.Fatalf("bad -bench regexp: %v", err)
		}
		var kept []spec
		for _, s := range all {
			if re.MatchString(s.name) {
				kept = append(kept, s)
			}
		}
		all = kept
	}
	if len(all) == 0 {
		log.Fatal("no benchmarks selected")
	}
	if *iters < 1 {
		log.Fatal("-n must be >= 1")
	}

	if *rev == "auto" {
		*rev = detectRev()
	}
	var cpuFile *os.File
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatal(err)
		}
		cpuFile = pf
	}

	f := File{
		Schema:        SchemaID,
		Rev:           *rev,
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		MemTotalBytes: memTotalBytes(),
		Quick:         *quick,
		Iterations:    *iters,
	}

	f.Benchmarks = measureAll(all, *iters)

	// Flush the profiles before any of the exit paths below can fire:
	// log.Fatal calls os.Exit, which would skip deferred cleanup and leave
	// a truncated, unusable CPU profile after a fully-measured run.
	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
		fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		if mf, err := os.Create(*memprofile); err != nil {
			log.Printf("heap profile: %v", err)
		} else {
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				log.Printf("heap profile: %v", err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", *memprofile)
			}
			mf.Close()
		}
	}

	if err := f.Validate(); err != nil {
		log.Fatalf("refusing to write invalid output: %v", err)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", f.Rev)
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
