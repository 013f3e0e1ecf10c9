package diffuzz

import (
	"fmt"
	"sort"

	"repro/internal/scenario"
	"repro/internal/script"
	"repro/internal/sensordata"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Case is one generated fuzz scenario: a complete simulation
// configuration plus a scripted dynamics timeline, both derived
// deterministically from Seed. Identical seeds produce identical cases on
// every run, so a failure report is reproducible from its seed alone (the
// config and script are still serialized into repro files, so a corpus
// entry survives generator changes).
type Case struct {
	Seed   uint64          `json:"seed"`
	Cfg    scenario.Config `json:"config"`
	Script *script.Script  `json:"script"`
	// QueueDepth, when non-zero, bounds the serve oracle's admission
	// queue, so the oracle exercises the backpressure path: concurrent
	// submissions may shed with ErrOverloaded, and the shed queries must
	// leave no trace in the admission log. Zero means the serve default
	// (additive JSON — older corpus entries decode with the knob off).
	QueueDepth int `json:"queue_depth,omitempty"`
}

// nodeLadder is the usual network-size menu; shrinking walks it downward.
var nodeLadder = []int{12, 16, 20, 25, 30, 40, 50}

// bigNodes are the occasional large-N sizes (ScaleDefault stretches the
// deployment area to keep the paper's node density).
var bigNodes = []int{80, 120}

// minEpochs is the shortest horizon generation and shrinking use: it
// keeps the default 40-epoch warm-up, one metrics bucket, and at least a
// few workload injections inside the run.
const minEpochs = 120

// GenerateSized derives the Case for one seed. The scenario seed embedded
// in the config is walked forward until the deployment actually builds
// (connected placement within the depth cap), so every generated case is
// runnable by construction. A non-zero nodes forces the network size (0
// keeps the generator's own ladder draw) — the focused large-N pass the
// nightly campaign runs at a few thousand nodes. The override replaces
// the drawn size after all of the size draws have been consumed, so a
// sized case shares every other knob (mode, workload, optional
// subsystems, script shape) with the unsized case of the same seed, the
// unsized path is byte-identical to what it always was, and sized
// generation stays a pure function of (seed, nodes).
func GenerateSized(seed uint64, nodes int) Case {
	rng := sim.NewRNG(seed).Stream("diffuzz/gen")
	cfg := genConfig(rng, nodes)
	r := buildable(&cfg)
	c := Case{Seed: seed, Cfg: cfg, Script: genScript(rng, seed, cfg, r)}
	// The queue bound comes from its own stream so its addition left
	// every pre-existing seed's config and script untouched. Depths of
	// 1..4 against the serve oracle's 8 concurrent clients make real
	// shedding plausible without starving the run entirely.
	brng := sim.NewRNG(seed).Stream("diffuzz/backpressure")
	if brng.Bool(0.4) {
		c.QueueDepth = 1 + brng.Intn(4)
	}
	return c
}

// buildable walks cfg.Seed forward to the first deployment that builds
// and returns the built (never-started) runner so the script generator
// can derive concrete targets from the real topology.
func buildable(cfg *scenario.Config) *scenario.Runner {
	for tries := 0; ; tries++ {
		r, err := scenario.Build(*cfg)
		if err == nil {
			return r
		}
		if tries >= 200 {
			panic(fmt.Sprintf("diffuzz: no buildable deployment near seed %d: %v", cfg.Seed, err))
		}
		cfg.Seed++
	}
}

// genConfig draws one scenario configuration: ScaleDefault geometry at a
// random size, random workload and controller knobs, and each optional
// subsystem (heterogeneous mounts, lossy radio, energy, predictive
// sampling, the flooding baseline) enabled with a fixed probability.
func genConfig(rng *sim.RNG, forceNodes int) scenario.Config {
	nodes := nodeLadder[rng.Intn(len(nodeLadder))]
	if rng.Bool(0.1) {
		nodes = bigNodes[rng.Intn(len(bigNodes))]
	}
	if forceNodes > 0 {
		nodes = forceNodes
	}
	cfg := scenario.ScaleDefault(nodes)
	cfg.Seed = rng.Uint64()
	cfg.Epochs = int64(240 + rng.Intn(481)) // 240..720
	if forceNodes >= 1000 {
		// Large-N cases fold the horizon draw into 120..240 epochs (before
		// anything downstream reads cfg.Epochs), keeping a focused pass at
		// thousands of nodes affordable without losing draw determinism.
		cfg.Epochs = minEpochs + cfg.Epochs%121
	}
	cfg.QueryInterval = []int64{5, 10, 20, 30}[rng.Intn(4)]
	cfg.Coverage = 0.2 + 0.6*rng.Float64()

	switch p := rng.Float64(); {
	case p < 0.5:
		cfg.Mode = scenario.FixedDelta
		cfg.FixedPct = 2 + 8*rng.Float64()
	case p < 0.8:
		cfg.Mode = scenario.ATC
		cfg.Rho = 0.2 + 0.4*rng.Float64()
	default:
		cfg.Mode = scenario.StaticIndex
		cfg.FixedPct = 2 + 8*rng.Float64()
	}

	if rng.Bool(0.25) {
		cfg.Heterogeneous = true
		cfg.TypeProb = 0.4 + 0.4*rng.Float64()
	}
	if rng.Bool(0.2) {
		cfg.PacketLoss = 0.01 + 0.09*rng.Float64()
	}
	if rng.Bool(0.15) {
		cfg.EnergyCapacity = 800 + 1200*rng.Float64()
	}
	if rng.Bool(0.15) {
		cfg.PredictiveSampling = true
	}
	if rng.Bool(0.1) {
		cfg.DisseminateByFlooding = true
	}
	return cfg
}

// genScript draws a timeline over all seven ops. Kill targets are mostly
// auto-picked; explicit ones come from the built topology's live non-root
// tree nodes, so they are valid at epoch 0 (an earlier kill can still
// invalidate them mid-run — the event is then recorded as skipped, which
// is itself deterministic and therefore fair game for the oracles).
func genScript(rng *sim.RNG, seed uint64, cfg scenario.Config, r *scenario.Runner) *script.Script {
	s := &script.Script{Name: fmt.Sprintf("fuzz-%d", seed)}
	if rng.Bool(0.5) {
		s.Workload.Interval = int64(5 + rng.Intn(26))
	}
	if rng.Bool(0.3) {
		s.Workload.Coverage = 0.1 + 0.8*rng.Float64()
	}

	var targets []topology.NodeID
	for _, id := range r.Tree.Nodes() {
		if id != topology.Root {
			targets = append(targets, id)
		}
	}

	n := rng.Intn(9) // 0..8 events; empty timelines keep the oracles honest on quiet runs
	for i := 0; i < n; i++ {
		at := int64(1 + rng.Intn(int(cfg.Epochs)-1))
		var e script.Event
		switch rng.Intn(7) {
		case 0:
			e = script.Event{At: at, Op: script.OpKill}
			if len(targets) > 0 && rng.Bool(0.3) {
				e.Node = int(targets[rng.Intn(len(targets))])
			}
		case 1:
			e = script.Event{At: at, Op: script.OpCascade,
				Count: 1 + rng.Intn(4), Spacing: int64(1 + rng.Intn(30))}
		case 2:
			delta := rng.Range(1, 10)
			if rng.Bool(0.5) {
				delta = -delta
			}
			e = script.Event{At: at, Op: script.OpShift, Type: randType(rng), Delta: delta}
		case 3:
			e = script.Event{At: at, Op: script.OpDrift, Scale: 0.3 + 2.7*rng.Float64()}
			if rng.Bool(0.75) {
				e.Type = randType(rng)
			}
		case 4:
			e = script.Event{At: at, Op: script.OpBurst, Interval: int64(3 + rng.Intn(38))}
		case 5:
			e = script.Event{At: at, Op: script.OpCoverage, Coverage: 0.1 + 0.8*rng.Float64()}
		case 6:
			e = script.Event{At: at, Op: script.OpRetune, Delta: 1 + 11*rng.Float64()}
		}
		s.Events = append(s.Events, e)
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}

// randType names a random sensor type.
func randType(rng *sim.RNG) string {
	return sensordata.AllTypes()[rng.Intn(int(sensordata.NumTypes))].String()
}

// clone deep-copies the case so shrink candidates never alias the
// original's script.
func (c Case) clone() Case {
	s := *c.Script
	s.Events = append([]script.Event(nil), c.Script.Events...)
	c.Script = &s
	return c
}
