package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/scenario"
	"repro/internal/script"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// churnScript is a frozen copy of scripts/churn.json, so that editing the
// repository's example script does not change this workload.
//
//go:embed testdata/churn.json
var churnScript []byte

// simWorkload is a whole-simulation workload. A run first sets up
// setupSeeds scenarios, one per seed, timing each Build and measuring the
// memory it keeps. It then repeats until the time budget is spent: one
// repetition builds (untimed) and runs every mode on one seed, cycling
// through the first window seeds. Seeds are consecutive from the run seed,
// so runs with nearby seeds share most of their inputs; a run that
// outlasts the window also checks that a repeated input reproduces its
// digest.
type simWorkload struct {
	nodes, smokeNodes   int
	epochs, smokeEpochs int64
	modes               []string // "fixed", "atc" or "flood"
	script              []byte   // nil: the built-in query workload
	setupSeeds          int      // seeds set up and timed; more where Build is cheap
	window              int      // seeds the repetitions cycle through, at most setupSeeds
	// minReps repetitions always run, however short the time budget; the
	// committed digests cover exactly these.
	minReps int
	// chunk is the epochs per throughput sample, with a reference run
	// between chunks: 10 to 200 ms of work, so that the reference run
	// costs little and still sits close in time to what it normalizes,
	// and a whole number of query intervals, so that every chunk carries
	// the same periodic work.
	chunk, smokeChunk int64
}

// size returns the node count, horizon and chunk for a full or smoke run.
func (w simWorkload) size(smoke bool) (nodes int, epochs, chunk int64) {
	if smoke {
		return w.smokeNodes, w.smokeEpochs, w.smokeChunk
	}
	return w.nodes, w.epochs, w.chunk
}

// setUpSeeds is how many seeds a run sets up: a smoke run sets up only
// those its repetitions use.
func (w simWorkload) setUpSeeds(smoke bool) int {
	if smoke {
		return w.window
	}
	return w.setupSeeds
}

// config builds one run's scenario. A script run also returns the player
// that drives it.
func (w simWorkload) config(seed uint64, mode string, smoke bool) (scenario.Config, *script.Player, error) {
	nodes, epochs, _ := w.size(smoke)
	cfg := scenario.ScaleDefault(nodes)
	cfg.Seed = seed
	cfg.Epochs = epochs
	switch mode {
	case "fixed":
	case "atc":
		cfg.Mode = scenario.ATC
	case "flood":
		cfg.DisseminateByFlooding = true
	default:
		return cfg, nil, fmt.Errorf("unknown mode %q", mode)
	}
	if w.script == nil {
		return cfg, nil, nil
	}
	sc, err := script.Parse(w.script)
	if err != nil {
		return cfg, nil, err
	}
	p, err := script.NewPlayer(sc)
	if err != nil {
		return cfg, nil, err
	}
	cfg.DisableWorkload = true
	cfg.Script = p
	return cfg, p, nil
}

// seedWindow is the run's scenario seeds: first, first+1, ..., with any
// seed whose scenario cannot be built (a placement the depth and fanout
// caps cannot span) replaced by the next unused one.
type seedWindow struct {
	seeds    []uint64
	next     uint64
	replaced int
}

func newSeedWindow(first uint64, n int) *seedWindow {
	w := &seedWindow{seeds: make([]uint64, n), next: first + uint64(n)}
	for i := range w.seeds {
		w.seeds[i] = first + uint64(i)
	}
	return w
}

// replace swaps seed i for the next unused seed.
func (w *seedWindow) replace(i int) error {
	if w.replaced++; w.replaced > 1000 {
		return errors.New("1000 seeds in a row cannot be built")
	}
	w.seeds[i] = w.next
	w.next++
	return nil
}

// run executes the workload for o.budget (at least minReps repetitions).
// With a tracer it also records spans around the calls into the
// simulator, attaches a telemetry registry and reads runtime statistics;
// results are identical either way.
func (w simWorkload) run(name string, o runOpts, tr *tracer) (*outcome, error) {
	oc := newOutcome()
	root := tr.open(0, "bench."+name)
	start := now()
	seeds := newSeedWindow(o.seed, w.setUpSeeds(o.smoke))
	sp := tr.open(root.id(), "bench.setup")
	err := w.setUp(seeds, o.smoke, oc)
	sp.close()
	if err != nil {
		return nil, err
	}

	var lay *simLayers
	if tr != nil {
		lay = &simLayers{byMode: map[string][]time.Duration{}, reg: telemetry.NewRegistry()}
	}
	seen := map[string]string{} // seed/mode → digest
	var repDigests []string
	for rep := 0; rep < w.minReps || time.Since(start) < o.budget; rep++ {
		seed := seeds.seeds[rep%w.window]
		var nodeEpochs, cpu, epochMs float64
		rd := sha256.New()
		for _, mode := range w.modes {
			mr, err := w.runOnce(seed, mode, o.smoke, oc, tr, root.id(), lay)
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("%d/%s", seed, mode)
			if prev, ok := seen[key]; ok && prev != mr.digest {
				oc.fail("seed %d mode %s: repeated run digest %s != first %s", seed, mode, mr.digest, prev)
			}
			seen[key] = mr.digest
			rd.Write([]byte(mr.digest))
			nodeEpochs += mr.nodeEpochs
			cpu += mr.cpu.Seconds()
			epochMs += millis(mr.epochTime) / float64(len(w.modes))
		}
		repDigests = append(repDigests, hex.EncodeToString(rd.Sum(nil)))
		oc.add("throughput_per_cpu_s", nodeEpochs/cpu)
		oc.add("latency_p50_ms", epochMs)
	}
	all := sha256.New()
	for _, d := range repDigests[:w.minReps] {
		all.Write([]byte(d))
	}
	oc.digest = hex.EncodeToString(all.Sum(nil))
	root.close()
	if lay != nil {
		nodes, _, _ := w.size(o.smoke)
		oc.layer = lay.metrics(nodes)
	}
	return oc, nil
}

// setUp builds every seed's scenario (first mode), timing each Build as a
// set-up sample, and samples the GC-settled live heap that Build plus one
// epoch adds, per node. Seeds that cannot be built are replaced, so the
// repetitions only meet buildable ones.
func (w simWorkload) setUp(seeds *seedWindow, smoke bool, oc *outcome) error {
	for i := 0; i < len(seeds.seeds); i++ {
		cfg, _, err := w.config(seeds.seeds[i], w.modes[0], smoke)
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		before := hostRef.run()
		t0 := now()
		r, err := scenario.Build(cfg)
		setup := time.Since(t0)
		setup = atRef(setup, (before+hostRef.run())/2)
		if err != nil {
			if err := seeds.replace(i); err != nil {
				return err
			}
			i--
			continue
		}
		r.Start()
		r.Step(1)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(r)
		oc.add("setup_s", setup.Seconds())
		oc.add("bytes_per_node", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/float64(cfg.NumNodes))
	}
	return nil
}

// modeRun is one checked scenario run.
type modeRun struct {
	nodeEpochs float64
	cpu        time.Duration // median CPU time of a chunk, times chunks, at the reference speed
	epochTime  time.Duration // median wall time over the run's epochs, at the reference speed
	digest     string
}

// runOnce builds and runs one scenario and checks its result.
func (w simWorkload) runOnce(seed uint64, mode string, smoke bool, oc *outcome, tr *tracer, parent int64, lay *simLayers) (modeRun, error) {
	cfg, player, err := w.config(seed, mode, smoke)
	if err != nil {
		return modeRun{}, err
	}
	if lay != nil {
		cfg.Telemetry = lay.reg
		lay.topology(cfg, tr, parent)
	}
	gc(tr, parent)
	sp := tr.open(parent, "scenario.Build")
	r, err := scenario.Build(cfg)
	if d := sp.close(); lay != nil {
		lay.build = append(lay.build, d)
	}
	if err != nil {
		return modeRun{}, fmt.Errorf("seed %d: %w", seed, err)
	}
	_, _, chunk := w.size(smoke)
	probe := attachProbe(r, chunk)
	gc(tr, parent)

	var m0, m1 runtime.MemStats
	if lay != nil {
		runtime.ReadMemStats(&m0)
	}
	name := "scenario.Run"
	if player != nil {
		name = "script.Run"
	}
	sp = tr.open(parent, name)
	probe.tr, probe.parent = tr, sp.id()
	res := r.Run()
	d := sp.close()
	oc.attempted++
	oc.refs = append(oc.refs, probe.refs...)
	if lay != nil {
		runtime.ReadMemStats(&m1)
		lay.observeRun(r, mode, d, probe, player, &m0, &m1, tr, parent)
	}

	sp = tr.open(parent, "bench.digest")
	var report *script.Report
	if player != nil {
		report = player.Report()
	}
	digest := resultDigest(res, report, r.Tree, r.Graph.Len())
	sp.close()
	if msg := invariants(res); msg != "" {
		oc.fail("seed %d mode %s: %s", seed, mode, msg)
	}
	return modeRun{
		nodeEpochs: float64(cfg.NumNodes) * float64(r.Epoch()),
		cpu:        medianDuration(probe.chunkCPU()) * time.Duration(r.Epoch()) / time.Duration(chunk),
		epochTime:  medianDuration(probe.epochTimes()),
		digest:     digest,
	}, nil
}

// gc collects garbage outside every timed region, so each Build and Run
// starts from the same heap state.
func gc(tr *tracer, parent int64) {
	sp := tr.open(parent, "bench.gc")
	runtime.GC()
	sp.close()
}

// epochProbe timestamps the start of every simulated epoch, whichever way
// the run is driven (Run, or a script player's stepping). Every chunk
// epochs it reads the process CPU time and runs the reference kernel
// (ref.go), leaving the kernel's time out of both clocks. It is an engine
// ticker at the lowest priority, so it fires before any other work of the
// epoch; it only reads clocks and the query count, so the run's results
// are unchanged.
type epochProbe struct {
	chunk   int64
	base    time.Time
	paused  time.Duration   // wall time spent in reference runs
	at      []time.Duration // wall time since base, less paused, at the start of each epoch
	queries []int           // queries injected before each epoch
	// At the start of chunk i: the CPU time before (ends[i], closing chunk
	// i-1) and after (starts[i]) the reference run, which took refs[i].
	ends, starts, refs []time.Duration
	// tr and parent, when set, wrap each reference run in a span.
	tr     *tracer
	parent int64
}

func attachProbe(r *scenario.Runner, chunk int64) *epochProbe {
	n := r.Cfg.Epochs + 2
	p := &epochProbe{
		chunk:   chunk,
		base:    now(),
		at:      make([]time.Duration, 0, n),
		queries: make([]int, 0, n),
		ends:    make([]time.Duration, 0, n/chunk+1),
		starts:  make([]time.Duration, 0, n/chunk+1),
		refs:    make([]time.Duration, 0, n/chunk+1),
	}
	r.Engine.AddTicker(math.MinInt, func() {
		if int64(len(p.at))%chunk == 0 {
			t0 := now()
			p.ends = append(p.ends, cpuTime())
			sp := p.tr.open(p.parent, "bench.ref")
			p.refs = append(p.refs, hostRef.run())
			sp.close()
			p.starts = append(p.starts, cpuTime())
			p.paused += time.Since(t0)
		}
		p.at = append(p.at, time.Since(p.base)-p.paused)
		p.queries = append(p.queries, r.QueriesInjected())
	})
	return p
}

// refAround is the reference time for chunk i: the mean of the runs at
// its start and its end.
func (p *epochProbe) refAround(i int) time.Duration {
	if i+1 < len(p.refs) {
		return (p.refs[i] + p.refs[i+1]) / 2
	}
	return p.refs[i]
}

// chunkCPU is the CPU time of every whole chunk, at the reference speed.
func (p *epochProbe) chunkCPU() []time.Duration {
	var out []time.Duration
	for i := 0; i+1 < len(p.ends); i++ {
		out = append(out, atRef(p.ends[i+1]-p.starts[i], p.refAround(i)))
	}
	return out
}

// epochTimes is the wall time of every epoch, at the reference speed of
// its chunk.
func (p *epochProbe) epochTimes() []time.Duration {
	out := diffs(p.at)
	for i := range out {
		out[i] = atRef(out[i], p.refAround(i/int(p.chunk)))
	}
	return out
}

// diffs returns the gaps between consecutive readings.
func diffs(ts []time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(ts))
	for i := 1; i < len(ts); i++ {
		out = append(out, ts[i]-ts[i-1])
	}
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// simLayers accumulates a traced run's per-layer observations.
type simLayers struct {
	place, tree, build, snapshot []time.Duration
	scripted                     []time.Duration
	byMode                       map[string][]time.Duration
	steps, injectSteps, plain    []time.Duration
	epochs, probeTicks           float64
	mallocs, allocBytes          float64
	gcCycles, eventsApplied      []float64
	reg                          *telemetry.Registry
}

// topology times the placement and tree construction Build performs, with
// the same inputs, as separate calls. Their errors surface from Build.
func (l *simLayers) topology(cfg scenario.Config, tr *tracer, parent int64) {
	sp := tr.open(parent, "topology.PlaceRandom")
	g, err := topology.PlaceRandom(topology.PlacementConfig{
		N: cfg.NumNodes, Width: cfg.Width, Height: cfg.Height, RadioRange: cfg.RadioRange,
	}, sim.NewRNG(cfg.Seed).Stream("place"))
	l.place = append(l.place, sp.close())
	if err != nil {
		return
	}
	sp = tr.open(parent, "topology.BuildSpanningTree")
	_, _ = topology.BuildSpanningTree(g, topology.Root, cfg.MaxFanout, cfg.MaxDepth) // Build reports the same error
	l.tree = append(l.tree, sp.close())
}

// observeRun records one traced run: its probe's per-epoch times, split
// by whether the epoch injected a query, its allocations and GC cycles, a
// separately timed Snapshot, and the script events applied.
func (l *simLayers) observeRun(r *scenario.Runner, mode string, d time.Duration, p *epochProbe, player *script.Player, m0, m1 *runtime.MemStats, tr *tracer, parent int64) {
	l.byMode[mode] = append(l.byMode[mode], d)
	for i, e := range diffs(p.at) {
		l.steps = append(l.steps, e)
		if p.queries[i+1] > p.queries[i] {
			l.injectSteps = append(l.injectSteps, e)
		} else {
			l.plain = append(l.plain, e)
		}
	}
	l.epochs += float64(r.Epoch())
	l.probeTicks += float64(len(p.at))
	l.mallocs += float64(m1.Mallocs - m0.Mallocs)
	l.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	l.gcCycles = append(l.gcCycles, float64(m1.NumGC-m0.NumGC))

	sp := tr.open(parent, "scenario.Snapshot")
	r.Snapshot()
	l.snapshot = append(l.snapshot, sp.close())
	if player != nil {
		l.scripted = append(l.scripted, d)
		applied := 0
		for _, e := range player.Report().Events {
			if e.Applied {
				applied++
			}
		}
		l.eventsApplied = append(l.eventsApplied, float64(applied))
	}
}

// metrics turns the observations of runs on nodes-node networks into
// per-layer values.
func (l *simLayers) metrics(nodes int) map[string]float64 {
	med := func(ds []time.Duration) float64 { return summarize(inUnit(ds, time.Second)).Median }
	us := func(ds []time.Duration, p float64) float64 { return percentile(inUnit(ds, time.Microsecond), p) }
	m := registryLayers(l.reg.Snapshot(), float64(nodes))
	for k, v := range l.buildLayers() {
		m[k] = v
	}
	// The probe is one more engine ticker; take its firings back out.
	m["sim.ticker_runs_per_epoch"] -= l.probeTicks / l.epochs
	m["scenario.step_us.p50"] = us(l.steps, 50)
	m["scenario.step_us.p99"] = us(l.steps, 99)
	m["scenario.snapshot_ms"] = med(l.snapshot) * 1e3
	m["scenario.allocs_per_epoch"] = l.mallocs / l.epochs
	m["scenario.alloc_bytes_per_epoch"] = l.allocBytes / l.epochs
	m["scenario.gc_cycles"] = summarize(l.gcCycles).Median
	m["script.run_s"] = med(l.scripted)
	m["script.events_applied"] = summarize(l.eventsApplied).Median
	if len(l.injectSteps) > 0 && len(l.plain) > 0 {
		m["query.inject_epoch_extra_us"] = us(l.injectSteps, 50) - us(l.plain, 50)
	}
	if fixed, atc := l.byMode["fixed"], l.byMode["atc"]; len(fixed) > 0 && len(atc) > 0 {
		m["atc.extra_s"] = med(atc) - med(fixed)
	}
	return m
}

// buildLayers reports the construction spans: placement, tree, and the
// rest of Build.
func (l *simLayers) buildLayers() map[string]float64 {
	med := func(ds []time.Duration) float64 { return summarize(inUnit(ds, time.Second)).Median }
	m := map[string]float64{
		"topology.place_s": med(l.place),
		"topology.tree_s":  med(l.tree),
		"scenario.build_s": med(l.build),
	}
	m["scenario.build_other_s"] = m["scenario.build_s"] - m["topology.place_s"] - m["topology.tree_s"]
	return m
}

// registryLayers derives the per-layer counts from a telemetry snapshot,
// summed over shard labels and divided by the simulated epochs it counted.
// nodesPerEpoch is the network size one epoch steps, for the active
// fraction.
func registryLayers(snaps []telemetry.SeriesSnapshot, nodesPerEpoch float64) map[string]float64 {
	sum := map[string]float64{}
	peak := map[string]float64{}
	for _, s := range snaps {
		key := s.Name
		if kind := s.Labels["kind"]; kind != "" {
			key += "." + kind
		}
		sum[key] += s.Value
		peak[key] = max(peak[key], s.Value)
	}
	epochs := sum["dirq_epochs_total"]
	per := func(k string) float64 {
		if epochs == 0 {
			return 0
		}
		return sum[k] / epochs
	}
	m := map[string]float64{
		"sensordata.evals_per_epoch":             per("dirq_field_evals_total"),
		"sensordata.sweep_hits_per_epoch":        per("dirq_field_sweep_hits_total"),
		"sensordata.sweep_refutations_per_epoch": per("dirq_field_sweep_refutations_total"),
		"core.active_nodes_per_epoch":            per("dirq_core_active_nodes_total"),
		"core.tuples_sent_per_epoch":             per("dirq_core_tuples_sent_total"),
		"core.retunes":                           sum["dirq_core_retunes_total"],
		"lmac.frames_full_per_epoch":             per("dirq_lmac_frames_total.full"),
		"lmac.frames_quiet_per_epoch":            per("dirq_lmac_frames_total.quiet"),
		"lmac.frames_silent_per_epoch":           per("dirq_lmac_frames_total.silent"),
		"lmac.messages_flushed_per_epoch":        per("dirq_lmac_messages_flushed_total"),
		"radio.tx_per_epoch":                     per("dirq_radio_tx_total"),
		"radio.rx_per_epoch":                     per("dirq_radio_rx_total"),
		"sim.events_dispatched_per_epoch":        per("dirq_engine_events_dispatched_total"),
		"sim.ticker_runs_per_epoch":              per("dirq_engine_ticker_runs_total"),
		"sim.heap_depth_peak":                    peak["dirq_engine_heap_depth_peak"],
	}
	if h, r := sum["dirq_field_sweep_hits_total"], sum["dirq_field_sweep_refutations_total"]; h+r > 0 {
		m["sensordata.sweep_hit_ratio"] = h / (h + r)
	}
	if nodesPerEpoch > 0 {
		m["core.active_fraction"] = m["core.active_nodes_per_epoch"] / nodesPerEpoch
	}
	return m
}
