package script

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// AppliedEvent is one timeline entry as it actually played out: resolved
// parameters (a kill's concrete victim), whether it applied, and why not.
type AppliedEvent struct {
	Event
	Applied bool   `json:"applied"`
	Note    string `json:"note,omitempty"`
}

// Window is the metric capture between two timeline boundaries (event
// epochs, plus the run's start and horizon): the queries injected in
// [From, To) evaluated at To, and the message costs accrued over the
// window. Queries still in flight at To count what they have reached so
// far — windows are deterministic snapshots, not settled reports.
type Window struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
	// Queries injected inside the window.
	Queries int `json:"queries"`
	// PctShould / PctReceived / MeanOvershootPct are the window's query
	// accuracy means (§7.1 quantities), zero when Queries is 0.
	PctShould        float64 `json:"pct_should"`
	PctReceived      float64 `json:"pct_received"`
	MeanOvershootPct float64 `json:"mean_overshoot_pct"`
	// QueryCost / UpdateCost / FloodCost are the window's cost deltas;
	// CostFraction is (QueryCost+UpdateCost)/FloodCost for the window.
	QueryCost    int64   `json:"query_cost"`
	UpdateCost   int64   `json:"update_cost"`
	FloodCost    int64   `json:"flood_cost"`
	CostFraction float64 `json:"cost_fraction"`
}

// Fault is the repair record of one applied kill: how big the detached
// subtree was and how long the cross-layer path took to absorb it (MAC
// death detection + re-attachment of every orphan).
type Fault struct {
	At   int64 `json:"at"`
	Node int   `json:"node"`
	// Detached is the subtree size rooted at the victim at kill time
	// (including the victim).
	Detached int `json:"detached"`
	// RepairedAt is the first epoch observed with the victim purged and no
	// orphans left (-1 if the horizon arrived first); RepairEpochs is the
	// latency. Repairs triggered by a scripted kill's own detection sweep
	// are observed within one epoch; a heal caused by a non-scripted death
	// (e.g. battery depletion under EnergyCapacity) is attributed to the
	// next step boundary after it.
	RepairedAt   int64 `json:"repaired_at"`
	RepairEpochs int64 `json:"repair_epochs"`
	// OrphansLeft is the network-wide count of nodes still detached when
	// measurement ended — faults unhealed at the same horizon report the
	// same number (orphans are not attributable to a single kill).
	OrphansLeft int `json:"orphans_left"`
}

// Report is everything the Player measured beyond the scenario's own
// Result: the resolved timeline, per-window metrics, and fault repairs.
type Report struct {
	Name    string         `json:"name,omitempty"`
	Events  []AppliedEvent `json:"events"`
	Windows []Window       `json:"windows"`
	Faults  []Fault        `json:"faults"`
}

// Result bundles the scenario Result with the script Report.
type Result struct {
	*scenario.Result
	Report *Report `json:"script"`
}

// Player drives one Script through one Runner. It implements
// scenario.Dynamics and is one-shot: build with NewPlayer, attach as
// Config.Script (plus DisableWorkload), run, then read Report.
type Player struct {
	script *Script
	events []Event // expanded timeline
	driven bool
	report Report
}

// NewPlayer compiles a script into a one-shot driver.
func NewPlayer(s *Script) (*Player, error) {
	events, err := s.Expand()
	if err != nil {
		return nil, err
	}
	return &Player{script: s, events: events, report: Report{Name: s.Name}}, nil
}

// Report returns what the Player measured. Valid after the run.
func (p *Player) Report() *Report { return &p.report }

// faultWatch tracks one applied kill until the tree heals. detected flips
// once the MAC has noticed the death (the victim left the tree); from
// then on the orphan set only changes at later death/join events, so the
// Player stops single-stepping for this watch.
type faultWatch struct {
	fault    Fault
	victim   topology.NodeID
	open     bool
	detected bool
}

// Drive implements scenario.Dynamics: it owns the workload injection and
// the stepping loop from Start to the horizon, fires timeline events at
// their exact epochs, closes a metric window at every event boundary, and
// single-steps through fault aftermaths to pin down repair latency.
func (p *Player) Drive(r *scenario.Runner) {
	if p.driven {
		panic("script: Player.Drive called twice (players are one-shot)")
	}
	p.driven = true
	if !r.Cfg.DisableWorkload {
		panic("script: scripted runs need Config.DisableWorkload (use script.Run)")
	}

	horizon := r.Cfg.Epochs
	interval := p.script.Workload.Interval
	if interval <= 0 {
		interval = r.Cfg.QueryInterval
	}
	if cov := p.script.Workload.Coverage; cov > 0 {
		if err := r.SetWorkloadCoverage(cov); err != nil {
			panic(fmt.Sprintf("script: workload coverage: %v", err)) // validated
		}
	}
	// First injection mirrors the built-in workload's warm-up behaviour;
	// later ones follow the (burst-adjustable) interval. Injections happen
	// at epoch boundaries between steps, like the live serving layer.
	nextInject := r.Cfg.WarmupEpochs
	if nextInject == 0 {
		nextInject = interval
	}

	win := windowTracker{}
	win.open(r, 0)
	var watches []*faultWatch
	ei := 0

	for {
		now := r.Epoch()
		if r.Done() {
			// Events scheduled at or past the horizon never fire — the
			// timeline bound is [0, horizon).
			break
		}

		// Timeline events due at this epoch, in order. Every distinct
		// event epoch closes the current metric window.
		if ei < len(p.events) && p.events[ei].At == now {
			if now > win.from {
				p.report.Windows = append(p.report.Windows, win.close(r, now))
				win.open(r, now)
			}
			for ei < len(p.events) && p.events[ei].At == now {
				ev := p.events[ei]
				ei++
				switch ev.Op {
				case OpBurst:
					interval = ev.Interval
					p.record(ev, true, "")
				case OpCoverage:
					if err := r.SetWorkloadCoverage(ev.Coverage); err != nil {
						p.record(ev, false, err.Error())
						continue
					}
					p.record(ev, true, "")
				default:
					applied, ok, note := Apply(r, ev)
					p.record(applied, ok, note)
					if ok && applied.Op == OpKill {
						victim := topology.NodeID(applied.Node)
						watches = append(watches, &faultWatch{
							fault: Fault{
								At:       now,
								Node:     applied.Node,
								Detached: Subtree(r, victim),
							},
							victim: victim,
							open:   true,
						})
					}
				}
			}
		}

		// Workload injection at the epoch boundary.
		for nextInject == now {
			q, truth := r.NextWorkloadQuery()
			rec, _ := r.Inject(q, truth)
			win.records = append(win.records, rec)
			nextInject = now + interval
		}

		// Advance to the next boundary: injection, event, or horizon —
		// one epoch at a time while a fault's death detection is still
		// pending, so the repair epoch is pinned exactly.
		target := horizon
		if nextInject > now && nextInject < target {
			target = nextInject
		}
		if ei < len(p.events) && p.events[ei].At < target {
			target = p.events[ei].At
		}
		if target <= now {
			// A stale boundary (e.g. an event scheduled at or before the
			// current epoch); fall through one epoch so the loop always
			// progresses.
			target = now + 1
		}
		if detectionPending(watches) && target > now+1 {
			target = now + 1
		}
		r.Step(target - now)

		// Repair detection: the victim purged from the tree and no
		// orphans outstanding.
		if len(watches) > 0 {
			p.observeRepairs(r, watches)
		}
	}

	// Horizon: close the final window and any unhealed faults.
	if end := r.Epoch(); end > win.from {
		p.report.Windows = append(p.report.Windows, win.close(r, end))
	}
	for _, w := range watches {
		if w.open {
			w.fault.RepairedAt = -1
			w.fault.RepairEpochs = -1
			w.fault.OrphansLeft = r.Proto.OrphanCount()
			w.open = false
		}
		p.report.Faults = append(p.report.Faults, w.fault)
	}
	// Skip timeline entries scheduled at or past the horizon.
	for ; ei < len(p.events); ei++ {
		p.record(p.events[ei], false, "at or past the horizon")
	}
}

// observeRepairs closes fault watches once the tree has healed: death
// detected (victim purged) and no orphans outstanding. A watch whose
// subtree stays stranded remains open — a later kill's repair sweep can
// still re-attach it. In Player-driven runs re-attachment happens only
// inside a death-detection sweep, and every scripted kill single-steps
// through its own detection window, so kill-driven heals are observed
// within one epoch of happening; only heals triggered by non-scripted
// deaths (battery depletion) land at the next step boundary instead.
func (p *Player) observeRepairs(r *scenario.Runner, watches []*faultWatch) {
	healedNet := r.Proto.OrphanCount() == 0
	for _, w := range watches {
		if !w.open {
			continue
		}
		if !w.detected && !r.Tree.Contains(w.victim) {
			w.detected = true
		}
		if w.detected && healedNet {
			w.fault.RepairedAt = r.Epoch()
			w.fault.RepairEpochs = w.fault.RepairedAt - w.fault.At
			w.open = false
		}
	}
}

// detectionPending reports whether any open watch is still waiting for
// the MAC to notice its death — the only phase that needs single-epoch
// stepping (a few epochs per kill, bounded by the MAC's dead threshold).
func detectionPending(watches []*faultWatch) bool {
	for _, w := range watches {
		if w.open && !w.detected {
			return true
		}
	}
	return false
}

// record appends one resolved timeline entry to the report.
func (p *Player) record(e Event, applied bool, note string) {
	p.report.Events = append(p.report.Events, AppliedEvent{Event: e, Applied: applied, Note: note})
}

// windowTracker accumulates one metric window.
type windowTracker struct {
	from    int64
	records []*core.QueryRecord
	query   int64
	update  int64
	flood   int64
}

// open snapshots the cost counters at the window start.
func (w *windowTracker) open(r *scenario.Runner, at int64) {
	w.from = at
	w.records = w.records[:0]
	w.query = queryCost(r)
	w.update = r.Meter.ByClass(radio.ClassUpdate).Total()
	w.flood = r.FloodBaseline()
}

// close evaluates the window's queries and cost deltas at epoch to.
func (w *windowTracker) close(r *scenario.Runner, to int64) Window {
	out := Window{
		From:       w.from,
		To:         to,
		Queries:    len(w.records),
		QueryCost:  queryCost(r) - w.query,
		UpdateCost: r.Meter.ByClass(radio.ClassUpdate).Total() - w.update,
		FloodCost:  r.FloodBaseline() - w.flood,
	}
	n := r.Graph.Len()
	for _, rec := range w.records {
		a := metrics.Eval(rec, n)
		out.PctShould += metrics.Pct(a.NumShould, n)
		out.PctReceived += metrics.Pct(a.NumReceived, n)
		out.MeanOvershootPct += a.OvershootPct
	}
	if out.Queries > 0 {
		out.PctShould /= float64(out.Queries)
		out.PctReceived /= float64(out.Queries)
		out.MeanOvershootPct /= float64(out.Queries)
	}
	if out.FloodCost > 0 {
		out.CostFraction = float64(out.QueryCost+out.UpdateCost) / float64(out.FloodCost)
	}
	return out
}

// queryCost reads the dissemination cost under the mode's meter class.
func queryCost(r *scenario.Runner) int64 {
	if r.Cfg.DisseminateByFlooding {
		return r.Meter.ByClass(radio.ClassFlood).Total()
	}
	return r.Meter.ByClass(radio.ClassQuery).Total()
}

// Run builds and executes a scripted scenario: the script owns the query
// workload (cfg.DisableWorkload is set for you) and drives cfg.Epochs of
// simulation, firing the timeline on the way. Same cfg + same script ⇒
// byte-identical Result, whichever way the run is driven.
func Run(cfg scenario.Config, s *Script) (*Result, error) {
	p, err := NewPlayer(s)
	if err != nil {
		return nil, err
	}
	cfg.DisableWorkload = true
	cfg.Script = p
	r, err := scenario.Build(cfg)
	if err != nil {
		return nil, err
	}
	res := r.Run()
	return &Result{Result: res, Report: p.Report()}, nil
}
