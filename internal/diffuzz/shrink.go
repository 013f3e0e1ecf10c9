package diffuzz

import (
	"errors"

	"repro/internal/scenario"
	"repro/internal/script"
	"repro/internal/topology"
)

// DefaultShrinkBudget bounds how many oracle re-executions one shrink may
// spend. Each shrink pass re-runs the failing oracle on a candidate, so
// the budget is the knob that trades minimality against wall time.
const DefaultShrinkBudget = 150

// Shrink minimizes a failing case with a ddmin-style greedy reduction:
// drop script events (all at once, then one at a time), halve the epoch
// horizon, walk the node count down the generation ladder, and zero the
// optional config knobs — repeating until a fixpoint or the budget runs
// out. A candidate survives only if the oracle still reports a
// *Divergence; infrastructure errors (e.g. a smaller network that no
// longer builds) reject the candidate rather than masking the find.
//
// Returns the minimized case and the number of oracle runs spent.
func Shrink(c Case, oracle string, perturb func(*scenario.Runner), budget int) (Case, int) {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	used := 0
	check := func(cand Case) bool {
		if used >= budget {
			return false
		}
		used++
		var d *Divergence
		return errors.As(RunOracle(oracle, cand, perturb), &d)
	}

	best := c.clone()
	for changed := true; changed && used < budget; {
		changed = false

		// Pass 1: the timeline. Try the empty script first (most failures
		// are not event-dependent at all), then remove single events.
		if len(best.Script.Events) > 0 {
			cand := best.clone()
			cand.Script.Events = nil
			if check(cand) {
				best = cand
				changed = true
			}
		}
		for i := 0; i < len(best.Script.Events) && used < budget; {
			cand := best.clone()
			cand.Script.Events = append(cand.Script.Events[:i], cand.Script.Events[i+1:]...)
			if check(cand) {
				best = cand
				changed = true
			} else {
				i++
			}
		}

		// Pass 2: the horizon. Events past the new horizon would never
		// fire; drop them so the repro stays readable.
		for best.Cfg.Epochs/2 >= minEpochs && used < budget {
			cand := best.clone()
			cand.Cfg.Epochs /= 2
			kept := cand.Script.Events[:0]
			for _, e := range cand.Script.Events {
				if e.At < cand.Cfg.Epochs {
					kept = append(kept, e)
				}
			}
			cand.Script.Events = kept
			if !check(cand) {
				break
			}
			best = cand
			changed = true
		}

		// Pass 3: the network, stepping down the generation ladder. The
		// scenario seed is kept, so a smaller deployment may fail to
		// build — that rejects the candidate, it does not end the shrink.
		for used < budget {
			n := nextSmaller(best.Cfg.NumNodes)
			if n == 0 {
				break
			}
			if cand, ok := withNodes(best, n); ok && check(cand) {
				best = cand
				changed = true
				continue
			}
			break
		}

		// Pass 4: the optional knobs, one at a time.
		for _, pass := range knobPasses {
			if used >= budget {
				break
			}
			cand := best.clone()
			if !pass(&cand) {
				continue
			}
			if check(cand) {
				best = cand
				changed = true
			}
		}
	}
	return best, used
}

// nextSmaller returns the largest ladder size strictly below n, or 0.
func nextSmaller(n int) int {
	best := 0
	for _, v := range append(append([]int(nil), nodeLadder...), bigNodes...) {
		if v < n && v > best {
			best = v
		}
	}
	return best
}

// withNodes rebuilds the case's geometry for a smaller network via the
// ScaleDefault template, keeping every other knob. Explicit kill targets
// outside the new node range fall back to auto-victim selection.
func withNodes(c Case, n int) (Case, bool) {
	cand := c.clone()
	tmpl := scenario.ScaleDefault(n)
	cand.Cfg.NumNodes = tmpl.NumNodes
	cand.Cfg.Width = tmpl.Width
	cand.Cfg.Height = tmpl.Height
	cand.Cfg.MaxDepth = tmpl.MaxDepth
	for i := range cand.Script.Events {
		if cand.Script.Events[i].Op == script.OpKill && cand.Script.Events[i].Node >= n {
			cand.Script.Events[i].Node = int(topology.Root) // 0: auto
		}
	}
	return cand, true
}

// knobPasses each zero one optional subsystem, returning false when the
// knob is already off (so the shrink spends no oracle run on it).
var knobPasses = []func(*Case) bool{
	func(c *Case) bool {
		if c.Cfg.PacketLoss == 0 {
			return false
		}
		c.Cfg.PacketLoss = 0
		return true
	},
	func(c *Case) bool {
		if !c.Cfg.Heterogeneous {
			return false
		}
		c.Cfg.Heterogeneous = false
		return true
	},
	func(c *Case) bool {
		if c.Cfg.EnergyCapacity == 0 {
			return false
		}
		c.Cfg.EnergyCapacity = 0
		return true
	},
	func(c *Case) bool {
		if !c.Cfg.PredictiveSampling {
			return false
		}
		c.Cfg.PredictiveSampling = false
		return true
	},
	func(c *Case) bool {
		if !c.Cfg.DisseminateByFlooding {
			return false
		}
		c.Cfg.DisseminateByFlooding = false
		return true
	},
	func(c *Case) bool {
		if c.Script.Workload == (script.Workload{}) {
			return false
		}
		c.Script.Workload = script.Workload{}
		return true
	},
	func(c *Case) bool {
		if c.Cfg.Mode == scenario.FixedDelta {
			return false
		}
		c.Cfg.Mode = scenario.FixedDelta
		if c.Cfg.FixedPct == 0 {
			c.Cfg.FixedPct = 5
		}
		return true
	},
	func(c *Case) bool {
		if c.QueueDepth == 0 {
			return false
		}
		c.QueueDepth = 0
		return true
	},
}
