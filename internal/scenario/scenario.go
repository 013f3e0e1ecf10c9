package scenario

import (
	"fmt"
	"math"

	"repro/internal/atc"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flood"
	"repro/internal/lmac"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sampling"
	"repro/internal/sensordata"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ThresholdMode selects how nodes pick δ.
type ThresholdMode int

// Threshold modes.
const (
	// FixedDelta uses Config.FixedPct on every node (§7.1).
	FixedDelta ThresholdMode = iota
	// ATC uses the Adaptive Threshold Control of §6.
	ATC
	// StaticIndex freezes all range updates after the warm-up phase — the
	// Semantic Routing Tree baseline of §2, suited only to constant
	// attributes. Queries keep routing on the stale index.
	StaticIndex
)

// String names the mode.
func (m ThresholdMode) String() string {
	switch m {
	case FixedDelta:
		return "fixed"
	case ATC:
		return "atc"
	case StaticIndex:
		return "static"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config fully parameterizes one simulation run.
type Config struct {
	Seed uint64

	// Topology (§7: 50 nodes including one root, k=8, d=10).
	NumNodes   int
	Width      float64
	Height     float64
	RadioRange float64
	MaxFanout  int // the paper's k
	MaxDepth   int // the paper's d

	// Timing (§7: one reading per epoch for 20 000 epochs, a query every
	// 20 epochs). Epochs is the horizon: a run executes epochs 0 through
	// Epochs, one more than Epochs, so dirq_epochs_total reads 11 after a
	// run with Epochs = 10 (see Runner.Step).
	Epochs        int64
	QueryInterval int64
	EpochsPerHour int

	// Workload: target fraction of nodes involved per query (0.2/0.4/0.6).
	Coverage float64

	// Threshold control.
	Mode     ThresholdMode
	FixedPct float64 // δ for FixedDelta mode, in percent of span
	// Rho is the fraction of the flooding-cost headroom the ATC budgets
	// for Update Messages. Query dissemination itself costs roughly
	// 10-15 % of flooding, so ρ=0.4 lands the paper's 45-55 % total-cost
	// band (§6).
	Rho float64

	// Heterogeneous mounts each sensor type with probability TypeProb
	// instead of giving every node all four types.
	Heterogeneous bool
	TypeProb      float64

	// PacketLoss enables Bernoulli reception loss (0 = lossless).
	PacketLoss float64

	// PredictiveSampling enables the §8 extension: nodes skip physical
	// sensor acquisitions whenever a per-node forecaster proves the reading
	// could not have changed the range table.
	PredictiveSampling bool

	// DisableActivityGating forces the naive epoch loop: every node
	// evaluates every mounted sensor every epoch. Gated and naive runs
	// are byte-identical by construction (guarded by gated_test.go); the
	// knob exists so the equivalence is testable and so the scale
	// benchmarks can record the ungated cost for comparison.
	DisableActivityGating bool

	// EnergyCapacity, when positive, attaches a battery of that many units
	// to every non-root node (energy.DefaultModel proportions). Nodes that
	// deplete are powered off through the cross-layer path, and the Result
	// reports lifetime statistics.
	EnergyCapacity float64

	// DisseminateByFlooding replaces directed dissemination with the §5.1
	// baseline: every query floods the whole network. Range updates are
	// suppressed (δ is effectively infinite). Used for lifetime and cost
	// comparisons against the same workload.
	DisseminateByFlooding bool

	// DisableWorkload suppresses the built-in coverage-targeted query
	// workload. Queries then enter the network only through explicit
	// Runner.Inject calls — the live query-serving path (internal/serve),
	// where clients, not the simulation, decide what to ask and when.
	DisableWorkload bool

	// Script optionally attaches a scenario-dynamics timeline (built by
	// internal/script) that Run executes instead of the plain
	// step-to-the-horizon drive: scheduled node kills, sensor regime
	// shifts, workload bursts, threshold retuning. The driver owns the
	// query workload, so DisableWorkload must be set alongside it
	// (script.Run does both). Typed as an interface to keep the layering
	// acyclic; only internal/script implements it.
	Script Dynamics `json:"-"`

	// Telemetry, when non-nil, registers instruments for every layer of
	// the built simulation (engine, radio, MAC, field generator, protocol)
	// on the given registry. Telemetry is provably inert: counters are
	// write-only from simulation code and consume no RNG draws, so runs
	// with and without a registry produce byte-identical Results (enforced
	// by telemetry_test.go). Typed as an interface and excluded from JSON
	// so Configs stay encodable (gob rejects typed nil pointers to
	// unexported-field structs; the fuzz oracles gob-compare Results).
	Telemetry telemetry.Instrumenter `json:"-"`

	// TraceCapacity, when positive, records the most recent protocol
	// events (updates, deliveries, deaths, re-attachments) into a ring
	// buffer exposed as Runner.Trace.
	TraceCapacity int

	// BucketEpochs is the reporting bucket width (Fig. 6/7 use 100).
	BucketEpochs int64

	// WarmupEpochs delays the first query so initial range reports can
	// climb the tree.
	WarmupEpochs int64
}

// Dynamics drives a started Runner to its horizon on behalf of Run,
// applying a scenario-dynamics timeline and injecting its own query
// workload between steps. Implementations must be deterministic: the same
// timeline on the same Config reproduces the identical event sequence.
// internal/script provides the declarative implementation.
type Dynamics interface {
	Drive(r *Runner)
}

// ScaleDefault returns the paper's configuration stretched to nodes-sized
// deployments at constant node density: the area grows linearly with the
// node count (side ∝ √N, keeping the paper's ~25-unit radio range
// meaningful) and the tree depth cap grows with the area diagonal. For
// nodes <= 50 it is exactly Default with the node count applied.
func ScaleDefault(nodes int) Config {
	cfg := Default()
	cfg.NumNodes = nodes
	if nodes > 50 {
		side := 100 * math.Sqrt(float64(nodes)/50)
		cfg.Width, cfg.Height = side, side
		cfg.MaxDepth = int(2*side/cfg.RadioRange) + 10
	}
	return cfg
}

// Default returns the paper's §7 configuration with the given threshold
// mode and coverage.
func Default() Config {
	return Config{
		Seed:          1,
		NumNodes:      50,
		Width:         100,
		Height:        100,
		RadioRange:    25,
		MaxFanout:     8,
		MaxDepth:      10,
		Epochs:        20000,
		QueryInterval: 20,
		EpochsPerHour: 100,
		Coverage:      0.4,
		Mode:          FixedDelta,
		FixedPct:      5,
		Rho:           0.4,
		TypeProb:      0.6,
		BucketEpochs:  100,
		WarmupEpochs:  40,
	}
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.NumNodes < 2 {
		return fmt.Errorf("scenario: NumNodes %d < 2", c.NumNodes)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("scenario: Epochs %d < 1", c.Epochs)
	}
	if c.QueryInterval < 1 {
		return fmt.Errorf("scenario: QueryInterval %d < 1", c.QueryInterval)
	}
	if c.EpochsPerHour < 1 {
		return fmt.Errorf("scenario: EpochsPerHour %d < 1", c.EpochsPerHour)
	}
	// Range checks are written so that NaN fails them.
	if !(c.Coverage > 0 && c.Coverage <= 1) {
		return fmt.Errorf("scenario: Coverage %v outside (0,1]", c.Coverage)
	}
	if c.Mode == FixedDelta && !(c.FixedPct >= 0) {
		return fmt.Errorf("scenario: FixedPct %v is negative or NaN", c.FixedPct)
	}
	if c.Mode == ATC && !(c.Rho > 0 && c.Rho <= 1) {
		return fmt.Errorf("scenario: Rho %v outside (0,1]", c.Rho)
	}
	if c.BucketEpochs < 1 {
		return fmt.Errorf("scenario: BucketEpochs %d < 1", c.BucketEpochs)
	}
	if !(c.PacketLoss >= 0 && c.PacketLoss < 1) {
		return fmt.Errorf("scenario: PacketLoss %v outside [0,1)", c.PacketLoss)
	}
	if c.Script != nil && !c.DisableWorkload {
		return fmt.Errorf("scenario: Script drives the query workload itself; set DisableWorkload (script.Run does)")
	}
	return nil
}

// Result carries everything the experiments need from one run.
type Result struct {
	Config Config

	// Accuracies holds one entry per injected query, in injection order.
	Accuracies []metrics.Accuracy
	// Summary aggregates the accuracies (Fig. 5 quantities).
	Summary metrics.AccuracySummary

	// UpdateTxPerBucket is the number of Update Messages transmitted in
	// each BucketEpochs-wide interval (Fig. 6's y-axis).
	UpdateTxPerBucket []float64
	// OvershootPerBucket is the mean per-query overshoot %% per bucket
	// (Fig. 7's y-axis).
	OvershootPerBucket []metrics.Bucket
	// DeltaPctPerBucket is the network-mean δ sampled at each bucket end.
	DeltaPctPerBucket []float64

	// Costs (paper unit model: 1 per tx, 1 per rx).
	QueryCost    radio.Cost // directed dissemination
	UpdateCost   radio.Cost // Update Messages
	EstimateCost radio.Cost // hourly EHr distribution
	FloodCost    int64      // what flooding the same queries would have cost
	// CostFraction is (QueryCost+UpdateCost)/FloodCost — the paper's
	// headline "45% to 55% the cost of flooding".
	CostFraction float64

	// UmaxPerHour is Fig. 6's reference level for the realized query rate.
	UmaxPerHour float64

	// QueriesInjected counts queries.
	QueriesInjected int
	// Sampling reports acquisition counts when PredictiveSampling is on.
	Sampling sampling.Stats
	// EHrSeries is the root's hourly query-count forecast over the run.
	EHrSeries []int
	// FirstDeathEpoch is the epoch of the first battery depletion (-1 if
	// none, or if EnergyCapacity is 0).
	FirstDeathEpoch int64
	// DeadAtEnd counts depleted nodes at the end of the run.
	DeadAtEnd int
	// TreeDepth and TreeInternal describe the deployed tree.
	TreeDepth    int
	TreeInternal int
}

// Runner holds a fully built simulation, exposed so tests and examples can
// poke at intermediate state. Create with Build, then either run to the
// horizon in one shot with Run, or drive it incrementally: Start once,
// Step repeatedly (injecting queries between steps with Inject), and
// Snapshot whenever a Result is wanted. Both drive styles execute the
// identical event sequence, so a Step-driven run with the same injected
// workload reproduces Run's Result bit for bit.
type Runner struct {
	Cfg     Config
	Engine  *sim.Engine
	Graph   *topology.Graph
	Tree    *topology.Tree
	Channel *radio.Channel
	Meter   *radio.Meter
	MAC     *lmac.MAC
	Gen     *sensordata.Generator
	Mounted []sensordata.TypeSet
	Proto   *core.Protocol
	Params  atc.NetworkParams

	Trace *trace.Recorder

	started    bool
	gate       *sampling.Gate
	bank       *energy.Bank
	floodBFS   flood.Scratch
	floodCache floodCache
	prevCosts  []radio.Cost
	firstDeath int64
	workload   *query.Workload
	records    []*core.QueryRecord
	updates    *metrics.Series
	deltas     *metrics.Series
	flooded    int64
	queries    int
	lastTx     int64
}

// Build constructs the simulation without running it.
func Build(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	engine := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)

	g, err := topology.PlaceRandom(topology.PlacementConfig{
		N: cfg.NumNodes, Width: cfg.Width, Height: cfg.Height, RadioRange: cfg.RadioRange,
	}, rng.Stream("place"))
	if err != nil {
		return nil, err
	}
	tree, err := topology.BuildSpanningTree(g, topology.Root, cfg.MaxFanout, cfg.MaxDepth)
	if err != nil {
		return nil, err
	}

	internal := 0
	for _, id := range tree.Nodes() {
		if len(tree.Children(id)) > 0 {
			internal++
		}
	}
	params := atc.NetworkParams{N: g.Len(), Internal: internal, Links: g.EdgeCount()}

	meter := radio.NewMeter(g.Len())
	channel := radio.NewChannel(g, meter)
	if cfg.PacketLoss > 0 {
		channel.SetLoss(cfg.PacketLoss, rng.Stream("loss"))
	}
	mac, err := lmac.New(engine, channel)
	if err != nil {
		return nil, err
	}

	pos := make([]topology.Position, g.Len())
	for i := range pos {
		pos[i] = g.Pos(topology.NodeID(i))
	}
	gen := sensordata.NewGenerator(pos, rng.Stream("data"))

	var mounted []sensordata.TypeSet
	if cfg.Heterogeneous {
		mounted = sensordata.AssignTypes(g.Len(), cfg.TypeProb, rng.Stream("types"))
	} else {
		mounted = sensordata.AssignAllTypes(g.Len())
	}

	pcfg := core.Config{
		EpochsPerHour: cfg.EpochsPerHour,
		MaxFanout:     cfg.MaxFanout,
		MaxDepth:      cfg.MaxDepth,
		DisableGating: cfg.DisableActivityGating,
	}
	if cfg.Telemetry != nil {
		// Central wiring point for every layer's instruments: the metric
		// name inventory lives here (and is documented in the README).
		// Registration is idempotent, so repeated builds on one registry
		// and restarted shards re-bind to the counters they already own.
		reg := cfg.Telemetry
		engine.SetTelemetry(sim.Telemetry{
			TickerRuns: reg.Counter("dirq_engine_ticker_runs_total", "Per-epoch ticker invocations."),
		})
		channel.SetTelemetry(radio.Telemetry{
			Tx:    reg.Counter("dirq_radio_tx_total", "Physical transmissions."),
			Rx:    reg.Counter("dirq_radio_rx_total", "Successful receptions."),
			Drops: reg.Counter("dirq_radio_drops_total", "Receptions lost to the Bernoulli loss process."),
		})
		mac.SetTelemetry(lmac.Telemetry{
			FramesQuiet:     reg.Counter("dirq_lmac_frames_total", "TDMA frames by kind.", telemetry.Label{Key: "kind", Value: "quiet"}),
			FramesSilent:    reg.Counter("dirq_lmac_frames_total", "TDMA frames by kind.", telemetry.Label{Key: "kind", Value: "silent"}),
			MessagesFlushed: reg.Counter("dirq_lmac_messages_flushed_total", "Queued data messages handed to the channel."),
		})
		gen.SetTelemetry(sensordata.Telemetry{
			Evals:        reg.Counter("dirq_field_evals_total", "Per-(node,type) field evaluations."),
			SweepHits:    reg.Counter("dirq_field_sweep_hits_total", "(Node, type) pairs the activity sweep could not prove quiet."),
			SweepRefutes: reg.Counter("dirq_field_sweep_refutations_total", "(Node, type) pairs the activity sweep proved quiet and skipped."),
		})
		pcfg.Telemetry = core.Telemetry{
			Epochs:        reg.Counter("dirq_epochs_total", "Simulation epochs executed."),
			ActiveNodes:   reg.Counter("dirq_core_active_nodes_total", "Nodes processed across all epoch worklists."),
			ActiveSetSize: reg.Histogram("dirq_core_active_set_size", "Per-epoch worklist size.", telemetry.ExponentialBuckets(1, 2, 14)),
			TuplesSent:    reg.Counter("dirq_core_tuples_sent_total", "Update Messages transmitted."),
			Retunes:       reg.Counter("dirq_core_retunes_total", "Controllers accepting a RetuneAll change."),
		}
	}
	var gate *sampling.Gate
	if cfg.PredictiveSampling {
		gate, err = sampling.NewGate(sampling.DefaultConfig())
		if err != nil {
			return nil, err
		}
		pcfg.Sampler = gate
	}
	switch {
	case cfg.DisseminateByFlooding:
		// No DirQ: suppress update traffic with an effectively infinite
		// threshold (only the one-off initial table reports remain).
		pcfg.Controllers = func(topology.NodeID) core.Controller {
			return &core.FixedController{Pct: 1e9}
		}
	case cfg.Mode == FixedDelta:
		pct := cfg.FixedPct
		pcfg.Controllers = func(topology.NodeID) core.Controller {
			return &core.FixedController{Pct: pct}
		}
	case cfg.Mode == StaticIndex:
		pct := cfg.FixedPct
		after := int(cfg.WarmupEpochs)
		pcfg.Controllers = func(topology.NodeID) core.Controller {
			return &core.FreezeController{Pct: pct, AfterEpochs: after}
		}
	case cfg.Mode == ATC:
		acfg := atc.DefaultConfig(cfg.EpochsPerHour)
		pcfg.Controllers = func(topology.NodeID) core.Controller {
			c, cerr := atc.NewController(acfg)
			if cerr != nil {
				panic(cerr) // static config, validated above
			}
			return c
		}
		bf, berr := atc.BudgetFunc(params, cfg.Rho)
		if berr != nil {
			return nil, berr
		}
		pcfg.Budget = bf
	default:
		return nil, fmt.Errorf("scenario: unknown threshold mode %d", cfg.Mode)
	}
	var bank *energy.Bank
	if cfg.EnergyCapacity > 0 {
		bank, err = energy.NewBank(g.Len(), energy.DefaultModel(cfg.EnergyCapacity))
		if err != nil {
			return nil, err
		}
	}
	var rec *trace.Recorder
	if cfg.TraceCapacity > 0 {
		rec, err = trace.NewRecorder(cfg.TraceCapacity)
		if err != nil {
			return nil, err
		}
		pcfg.Trace = rec.Hook(engine)
	}

	proto, err := core.New(engine, mac, channel, tree, gen, mounted, pcfg)
	if err != nil {
		return nil, err
	}
	wl, err := query.NewWorkload(cfg.Coverage, rng.Stream("workload"))
	if err != nil {
		return nil, err
	}
	return &Runner{
		Cfg: cfg, Engine: engine, Graph: g, Tree: tree, Channel: channel,
		Meter: meter, MAC: mac, Gen: gen, Mounted: mounted, Proto: proto,
		Params:     params,
		Trace:      rec,
		gate:       gate,
		bank:       bank,
		firstDeath: -1,
		workload:   wl,
		updates:    metrics.NewSeries(cfg.BucketEpochs),
		deltas:     metrics.NewSeries(cfg.BucketEpochs),
	}, nil
}

// Inject disseminates q immediately at the current epoch (directed, or
// network-wide in the flooding-baseline mode), registers its ground truth
// for accuracy accounting, and accrues the flooding-baseline cost. The
// returned record fills in as the query propagates over subsequent
// epochs; floodCost is what flooding this one query would have cost.
//
// The built-in workload uses this same path; external callers (the live
// serving layer) may call it between Step calls to admit client queries
// at epoch boundaries. Query IDs must be unique across the run.
func (r *Runner) Inject(q query.Query, truth query.GroundTruth) (rec *core.QueryRecord, floodCost int64) {
	now := r.Engine.Now()
	if r.Cfg.DisseminateByFlooding {
		// The flood carries the bare query, which no DirQ handler routes:
		// the nodes hear every copy and answer none with directed traffic.
		fr := r.floodBFS.Disseminate(r.Channel, topology.Root, q)
		n := r.Graph.Len()
		rec = &core.QueryRecord{
			Query: q, Truth: truth, InjectedAt: now,
			Received: query.NewNodeSet(n),
			Sources:  query.NewNodeSet(n),
		}
		for _, id := range fr.Reached {
			if id != topology.Root {
				rec.Received.Add(id)
			}
		}
		for _, src := range truth.Sources {
			if rec.Received.Has(src) {
				rec.Sources.Add(src)
			}
		}
		r.records = append(r.records, rec)
	} else {
		rec = r.Proto.InjectQuery(q, truth)
		r.records = append(r.records, rec)
	}
	r.queries++
	floodCost = r.floodTotal()
	r.flooded += floodCost
	return rec, floodCost
}

// floodCache holds the flooding baseline's cost for one liveness version
// of the channel.
type floodCache struct {
	valid bool
	ver   uint64
	total int64
}

// floodTotal is what flooding one query from the root costs now. The
// graph's edges are fixed once Build returns, so the cost changes only
// when a node's power flips; the whole-graph BFS reruns only then.
func (r *Runner) floodTotal() int64 {
	c := &r.floodCache
	if v := r.Channel.AliveVersion(); !c.valid || c.ver != v {
		c.total = r.floodBFS.CostOnly(r.Graph, r.Channel.Alive, topology.Root).Total()
		c.valid, c.ver = true, v
	}
	return c.total
}

// NextWorkloadQuery draws the next query from the built-in workload
// generator without injecting it, for callers that drive injection
// themselves (e.g. a DisableWorkload run fed at chosen epochs).
func (r *Runner) NextWorkloadQuery() (query.Query, query.GroundTruth) {
	return r.workload.Next(r.Gen, r.Tree, r.Mounted)
}

// Resolve computes the ground truth of an arbitrary query against the
// current state of the dataset — what Inject needs for a client-supplied
// query that did not come out of the built-in workload.
func (r *Runner) Resolve(q query.Query) query.GroundTruth {
	return query.Resolve(q, r.Tree, r.Mounted, func(id topology.NodeID) float64 {
		return r.Gen.Value(id, q.Type)
	})
}

// Start arms the simulation: the protocol and MAC begin, and the query
// workload (unless Cfg.DisableWorkload), per-bucket metric sampling, and
// energy accounting register as engine tickers. Call exactly once, then
// drive the clock with Step.
func (r *Runner) Start() {
	if r.started {
		panic("scenario: Runner.Start called twice")
	}
	r.started = true
	cfg := r.Cfg
	r.Proto.Start()
	r.MAC.Start()

	// Query injections: every QueryInterval epochs after warm-up, at
	// application priority but after the epoch's sensor acquisition
	// (priority +1 keeps it within the same tick, after readings).
	if !cfg.DisableWorkload {
		first := sim.Time(cfg.WarmupEpochs)
		if first == 0 {
			first = sim.Time(cfg.QueryInterval)
		}
		r.Engine.AddTicker(lmac.PrioApp+1, func() {
			now := r.Engine.Now()
			if now < first || int64(now) >= cfg.Epochs ||
				(now-first)%sim.Time(cfg.QueryInterval) != 0 {
				return
			}
			q, truth := r.workload.Next(r.Gen, r.Tree, r.Mounted)
			r.Inject(q, truth)
		})
	}

	// Per-bucket sampling of update traffic and mean δ, at end-of-epoch
	// priority on the last epoch of each bucket.
	r.Engine.AddTicker(lmac.PrioMetrics, func() {
		now := r.Engine.Now()
		if (now+1)%sim.Time(cfg.BucketEpochs) != 0 {
			return
		}
		tx := r.Meter.ByClass(radio.ClassUpdate).Tx
		r.updates.Add(int64(now), float64(tx-r.lastTx))
		r.lastTx = tx
		var dsum float64
		var dcnt int
		for _, id := range r.Tree.Nodes() {
			if id == topology.Root {
				continue
			}
			dsum += r.Proto.Node(id).DeltaPct()
			dcnt++
		}
		if dcnt > 0 {
			r.deltas.Add(int64(now), dsum/float64(dcnt))
		}
	})

	if r.bank != nil {
		r.bank.OnDeath(func(id topology.NodeID) {
			if r.firstDeath < 0 {
				r.firstDeath = int64(r.Engine.Now())
			}
			if r.Tree.Contains(id) {
				r.Proto.KillNode(id)
			}
		})
		// Registered after the sample ticker, so an epoch's bucket sample
		// sees the network before that epoch's energy deaths.
		r.Engine.AddTicker(lmac.PrioMetrics, func() {
			if int64(r.Engine.Now()) >= cfg.Epochs {
				return
			}
			r.bank.DrainIdleEpoch()
			for _, id := range r.Tree.Nodes() {
				if id == topology.Root || !r.Channel.Alive(id) {
					continue
				}
				for range r.Mounted[id].Types() {
					r.bank.DrainSample(id)
				}
			}
			r.prevCosts = r.bank.ApplyMeterDelta(r.Meter, r.prevCosts)
		})
	}
}

// Step advances the simulation by up to n epochs, stopping at the
// configured horizon (Cfg.Epochs). It returns the number of epochs
// actually advanced — 0 once the horizon is reached. Start must have
// been called.
//
// Advancing the clock from now to now+n executes epochs now+1 through
// now+n, and the first Step after Start also executes epoch 0. So that
// Step executes one epoch more than it returns: after Start, Step(1)
// returns 1 while dirq_epochs_total reads 2.
func (r *Runner) Step(n int64) int64 {
	if !r.started {
		panic("scenario: Runner.Step before Start")
	}
	if n < 0 {
		panic(fmt.Sprintf("scenario: Runner.Step(%d) negative", n))
	}
	now := int64(r.Engine.Now())
	target := now + n
	if target > r.Cfg.Epochs {
		target = r.Cfg.Epochs
	}
	if target <= now {
		return 0
	}
	r.Engine.RunUntil(sim.Time(target))
	return target - now
}

// Epoch returns the current simulation epoch.
func (r *Runner) Epoch() int64 { return int64(r.Engine.Now()) }

// Done reports whether the simulation has reached its horizon.
func (r *Runner) Done() bool { return int64(r.Engine.Now()) >= r.Cfg.Epochs }

// QueriesInjected returns the number of queries injected so far.
func (r *Runner) QueriesInjected() int { return r.queries }

// FloodBaseline returns the cumulative cost flooding would have incurred
// for every query injected so far — the denominator of the paper's
// headline cost fraction.
func (r *Runner) FloodBaseline() int64 { return r.flooded }

// SetWorkloadCoverage retargets the built-in workload generator's
// involved-node fraction for queries drawn after the call (scripted
// selectivity changes).
func (r *Runner) SetWorkloadCoverage(target float64) error {
	return r.workload.SetTarget(target)
}

// Run executes the simulation to its horizon and produces the Result.
// Without a Config.Script it is equivalent to Start, Step to the horizon,
// Snapshot; with one, the script's driver owns the stepping (and the
// query workload) between Start and Snapshot. Either way it executes
// epochs 0 through Cfg.Epochs, one more than Cfg.Epochs (see Step).
func (r *Runner) Run() *Result {
	r.Start()
	if r.Cfg.Script != nil {
		r.Cfg.Script.Drive(r)
	} else {
		r.Step(r.Cfg.Epochs)
	}
	return r.Snapshot()
}

// Snapshot evaluates all query records injected so far and assembles a
// Result. It does not mutate the simulation and may be called at any
// point of an incrementally driven run — queries still in flight are
// evaluated against what they have reached so far.
func (r *Runner) Snapshot() *Result {
	cfg := r.Cfg
	res := &Result{
		Config:          cfg,
		QueriesInjected: r.queries,
		QueryCost:       r.Meter.ByClass(radio.ClassQuery),
		UpdateCost:      r.Meter.ByClass(radio.ClassUpdate),
		EstimateCost:    r.Meter.ByClass(radio.ClassEstimate),
		FloodCost:       r.flooded,
		TreeDepth:       r.Tree.MaxDepth(),
		TreeInternal:    r.Params.Internal,
	}

	overshoot := metrics.NewSeries(cfg.BucketEpochs)
	for _, rec := range r.records {
		a := metrics.Eval(rec, r.Graph.Len())
		res.Accuracies = append(res.Accuracies, a)
		overshoot.Add(int64(rec.InjectedAt), a.OvershootPct)
	}
	res.Summary = metrics.Summarize(res.Accuracies, r.Graph.Len())
	res.UpdateTxPerBucket = r.updates.Sums()
	res.OvershootPerBucket = overshoot.Buckets()
	res.DeltaPctPerBucket = r.deltas.Sums()

	if res.FloodCost > 0 {
		res.CostFraction = float64(res.QueryCost.Total()+res.UpdateCost.Total()) /
			float64(res.FloodCost)
	}
	qph := 0
	if cfg.QueryInterval > 0 {
		qph = int(float64(cfg.EpochsPerHour) / float64(cfg.QueryInterval))
	}
	res.UmaxPerHour = r.Params.UmaxPerHour(qph)
	if r.gate != nil {
		res.Sampling = r.gate.Stats()
	}
	for _, e := range r.Proto.EstimatesEmitted() {
		res.EHrSeries = append(res.EHrSeries, e.QueriesPerHr)
	}
	res.FirstDeathEpoch = r.firstDeath
	if r.bank != nil {
		res.DeadAtEnd = r.Graph.Len() - r.bank.LiveCount()
	}
	if cfg.DisseminateByFlooding {
		// In flooding mode the dissemination cost lives under ClassFlood.
		res.QueryCost = r.Meter.ByClass(radio.ClassFlood)
		if res.FloodCost > 0 {
			res.CostFraction = float64(res.QueryCost.Total()+res.UpdateCost.Total()) /
				float64(res.FloodCost)
		}
	}
	return res
}

// Run builds and runs a scenario in one call.
func Run(cfg Config) (*Result, error) {
	r, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(), nil
}
