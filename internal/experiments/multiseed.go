package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// SeedStats aggregates one metric across seeds.
type SeedStats struct {
	Metric  string
	Summary metrics.Summary
}

// MultiSeedResult reports the headline quantities across independent
// topology/data/workload draws, quantifying how robust the single-seed
// figures are.
type MultiSeedResult struct {
	Seeds        int
	Mode         scenario.ThresholdMode
	Coverage     float64
	CostFraction metrics.Summary
	Overshoot    metrics.Summary
	UpdateTx     metrics.Summary
}

// MultiSeed runs the given configuration across `seeds` consecutive seeds
// and summarizes the distributions of the headline metrics. The per-seed
// runs are independent and execute on the Options.Workers pool.
func MultiSeed(o Options, mode scenario.ThresholdMode, coverage float64, seeds int) (*MultiSeedResult, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 seeds, got %d", seeds)
	}
	type sample struct{ cost, shoot, update float64 }
	samples, err := runSims(o, seeds,
		func(s int) (sample, error) {
			cfg := o.base()
			cfg.Seed = o.Seed + uint64(s)
			cfg.Mode = mode
			cfg.Coverage = coverage
			r, err := scenario.Run(cfg)
			if err != nil {
				return sample{}, err
			}
			return sample{r.CostFraction, r.Summary.MeanOvershoot, float64(r.UpdateCost.Tx)}, nil
		})
	if err != nil {
		return nil, err
	}
	var costs, shoots, updates []float64
	for _, s := range samples {
		costs = append(costs, s.cost)
		shoots = append(shoots, s.shoot)
		updates = append(updates, s.update)
	}
	return &MultiSeedResult{
		Seeds:        seeds,
		Mode:         mode,
		Coverage:     coverage,
		CostFraction: metrics.Describe(costs),
		Overshoot:    metrics.Describe(shoots),
		UpdateTx:     metrics.Describe(updates),
	}, nil
}

// Table renders the cross-seed distributions.
func (r *MultiSeedResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Robustness: %d seeds, mode=%s, coverage=%.0f%%",
			r.Seeds, r.Mode, r.Coverage*100),
		Comment: "Distribution of headline metrics across independent topology/data/workload draws.",
		Header:  []string{"metric", "mean", "std", "min", "median", "max"},
	}
	row := func(name string, s metrics.Summary) {
		t.Rows = append(t.Rows, []string{
			name, f3(s.Mean), f3(s.Std), f3(s.Min), f3(s.Median), f3(s.Max),
		})
	}
	row("cost/flooding", r.CostFraction)
	row("overshoot(%)", r.Overshoot)
	row("update_msgs", r.UpdateTx)
	return t
}
