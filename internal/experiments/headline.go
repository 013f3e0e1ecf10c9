package experiments

import (
	"fmt"

	"repro/internal/scenario"
)

// HeadlineRow is one coverage level of the headline experiment.
type HeadlineRow struct {
	Coverage      float64
	CostFraction  float64 // (queries + updates) / flooding — paper: 0.45-0.55
	MeanOvershoot float64 // paper: ≈3.6 % (ATC, 20 % relevant nodes)
	PctShould     float64
	PctReceived   float64
	UpdateTx      int64
	Queries       int
}

// HeadlineResult reproduces the paper's §1/§7 headline numbers with the
// ATC enabled across the three workload coverages.
type HeadlineResult struct {
	Rows []HeadlineRow
}

// Headline runs ATC at 20/40/60 % relevant nodes, one coverage level per
// pool worker.
func Headline(o Options) (*HeadlineResult, error) {
	coverages := []float64{0.2, 0.4, 0.6}
	rows, err := runSims(o, len(coverages),
		func(i int) (HeadlineRow, error) {
			cov := coverages[i]
			cfg := o.base()
			cfg.Coverage = cov
			cfg.Mode = scenario.ATC
			r, err := scenario.Run(cfg)
			if err != nil {
				return HeadlineRow{}, err
			}
			return HeadlineRow{
				Coverage:      cov,
				CostFraction:  r.CostFraction,
				MeanOvershoot: r.Summary.MeanOvershoot,
				PctShould:     r.Summary.PctShould,
				PctReceived:   r.Summary.PctReceived,
				UpdateTx:      r.UpdateCost.Tx,
				Queries:       r.QueriesInjected,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &HeadlineResult{Rows: rows}, nil
}

// Table renders the headline summary.
func (r *HeadlineResult) Table() *Table {
	t := &Table{
		Title: "Headline: DirQ with ATC vs flooding",
		Comment: "Paper: \"DirQ spends between 45% and 55% the cost of flooding\" and\n" +
			"\"suffers from an average overshoot of only 3.6%\" (ATC, 20% relevant nodes).",
		Header: []string{"relevant_nodes(%)", "cost/flooding", "mean_overshoot(%)",
			"should(%)", "received(%)", "updates_tx", "queries"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f1(row.Coverage * 100), f3(row.CostFraction), f2(row.MeanOvershoot),
			f1(row.PctShould), f1(row.PctReceived),
			fmt.Sprintf("%d", row.UpdateTx), fmt.Sprintf("%d", row.Queries),
		})
	}
	return t
}
