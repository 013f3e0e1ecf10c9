package experiments

import (
	"fmt"

	"repro/internal/scenario"
)

// LifetimeRow compares network lifetime under one dissemination strategy.
type LifetimeRow struct {
	Strategy        string
	FirstDeathEpoch int64 // -1 if nobody died
	DeadAtEnd       int
	CostFraction    float64
}

// LifetimeResult is the extension experiment turning the paper's headline
// cost ratio into node lifetime: equal batteries, same query workload,
// DirQ vs flooding every query.
type LifetimeResult struct {
	Capacity float64
	Epochs   int64
	Rows     []LifetimeRow
}

// Lifetime runs the comparison, one strategy per pool worker. Battery
// capacity is sized so the flooding network starts dying within the run.
func Lifetime(o Options) (*LifetimeResult, error) {
	res := &LifetimeResult{Epochs: o.Epochs}
	// Flooding drains roughly (1 + mean degree) units per node per query;
	// size capacity to ~40 % of the flooding total so deaths happen mid-run.
	res.Capacity = float64(o.Epochs) / 20 * 9 * 0.4

	strategies := []struct {
		label     string
		floodMode bool
		mode      scenario.ThresholdMode
	}{
		{"flooding", true, scenario.FixedDelta},
		{"dirq-fixed-5%", false, scenario.FixedDelta},
		{"dirq-atc", false, scenario.ATC},
	}
	rows, err := runSims(o, len(strategies),
		func(i int) (LifetimeRow, error) {
			s := strategies[i]
			cfg := o.base()
			cfg.EnergyCapacity = res.Capacity
			cfg.DisseminateByFlooding = s.floodMode
			cfg.Mode = s.mode
			r, err := scenario.Run(cfg)
			if err != nil {
				return LifetimeRow{}, err
			}
			return LifetimeRow{
				Strategy:        s.label,
				FirstDeathEpoch: r.FirstDeathEpoch,
				DeadAtEnd:       r.DeadAtEnd,
				CostFraction:    r.CostFraction,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Table renders the lifetime comparison.
func (r *LifetimeResult) Table() *Table {
	t := &Table{
		Title: "Extension: network lifetime under equal batteries (DirQ vs flooding)",
		Comment: fmt.Sprintf("capacity %.0f units/node, %d epochs, identical query workload.\n"+
			"first_death = -1 means no node depleted within the run.", r.Capacity, r.Epochs),
		Header: []string{"strategy", "first_death_epoch", "dead_at_end", "cost/flooding"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Strategy,
			fmt.Sprintf("%d", row.FirstDeathEpoch),
			fmt.Sprintf("%d", row.DeadAtEnd),
			f3(row.CostFraction),
		})
	}
	return t
}
