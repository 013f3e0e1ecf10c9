package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/script"
)

// ChurnPoint is the outcome of one failure rate: a scripted cascade of
// auto-picked node kills spread over the middle half of the run, under
// the otherwise-default workload.
type ChurnPoint struct {
	// Kills is the number of scripted node deaths.
	Kills int
	// PctShould / PctReceived / MeanOvershoot are the run's accuracy
	// means (§7.1 quantities) across all injected queries.
	PctShould     float64
	PctReceived   float64
	MeanOvershoot float64
	// CostFraction is (query+update)/flooding for the whole run.
	CostFraction float64
	// Repaired counts kills absorbed before the horizon;
	// MeanRepairEpochs averages their repair latency (0 when none).
	Repaired         int
	MeanRepairEpochs float64
	// Stranded counts nodes left orphaned at the horizon — kills the
	// tree could not absorb because no eligible live neighbor remained.
	Stranded int
}

// ChurnResult sweeps node-failure rates through the scripted dynamics
// engine: how gracefully does DirQ degrade as the topology churns?
type ChurnResult struct {
	Mode   scenario.ThresholdMode
	Points []ChurnPoint
}

// churnKills is the swept failure ladder.
var churnKills = []int{0, 1, 2, 4, 8}

// churnScript builds the failure timeline for one rate: a cascade
// starting after warm-up (a quarter into the run) with the kills spread
// evenly across the middle half, leaving the last quarter to observe the
// repaired steady state.
func churnScript(horizon int64, kills int) *script.Script {
	s := &script.Script{Name: fmt.Sprintf("churn-%d", kills)}
	if kills > 0 {
		spacing := horizon / 2 / int64(kills)
		if spacing < 1 {
			spacing = 1
		}
		s.Events = []script.Event{
			{At: horizon / 4, Op: script.OpCascade, Count: kills, Spacing: spacing},
		}
	}
	return s
}

// Churn runs the failure-rate sweep with ATC thresholds, in parallel on
// the Options.Workers pool.
func Churn(o Options) (*ChurnResult, error) {
	return churn(o, scenario.ATC)
}

func churn(o Options, mode scenario.ThresholdMode) (*ChurnResult, error) {
	points, err := runSims(o, len(churnKills),
		func(i int) (ChurnPoint, error) {
			kills := churnKills[i]
			cfg := o.base()
			cfg.Mode = mode
			res, err := script.Run(cfg, churnScript(cfg.Epochs, kills))
			if err != nil {
				return ChurnPoint{}, err
			}
			p := ChurnPoint{
				Kills:         kills,
				PctShould:     res.Summary.PctShould,
				PctReceived:   res.Summary.PctReceived,
				MeanOvershoot: res.Summary.MeanOvershoot,
				CostFraction:  res.CostFraction,
			}
			for _, f := range res.Report.Faults {
				if f.RepairedAt >= 0 {
					p.Repaired++
					p.MeanRepairEpochs += float64(f.RepairEpochs)
				} else if f.OrphansLeft > p.Stranded {
					p.Stranded = f.OrphansLeft
				}
			}
			if p.Repaired > 0 {
				p.MeanRepairEpochs /= float64(p.Repaired)
			}
			return p, nil
		})
	if err != nil {
		return nil, err
	}
	return &ChurnResult{Mode: mode, Points: points}, nil
}

// Table renders the sweep, one row per failure rate.
func (r *ChurnResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Churn: scripted node-failure sweep (%s thresholds)", r.Mode),
		Comment: "Each row kills N nodes (auto-picked internal nodes) in a scripted cascade\n" +
			"across the middle half of the run (internal/script). Repair latency is the\n" +
			"epochs from a kill to the tree fully re-absorbing the orphaned subtree\n" +
			"(§4.2's cross-layer repair); stranded nodes had no eligible neighbor left.",
		Header: []string{"kills", "%should", "%received", "overshoot%", "cost/flood", "repaired", "repair epochs", "stranded"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			d0(int64(p.Kills)), f1(p.PctShould), f1(p.PctReceived), f2(p.MeanOvershoot),
			f3(p.CostFraction), d0(int64(p.Repaired)), f1(p.MeanRepairEpochs), d0(int64(p.Stranded)),
		})
	}
	return t
}
