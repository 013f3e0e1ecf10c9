package experiments

import (
	"fmt"

	"repro/internal/scenario"
)

// Fig5Row is one δ setting of Fig. 5: the four curves at that x position.
type Fig5Row struct {
	DeltaPct     float64
	PctShould    float64 // "Nodes that SHOULD receive a query"
	PctReceive   float64 // "Nodes that RECEIVE a query"
	PctSources   float64 // "Source nodes"
	PctShouldNot float64 // "Nodes that SHOULD NOT receive a query"
}

// Fig5Result reproduces one Fig. 5 panel.
type Fig5Result struct {
	Coverage float64
	Rows     []Fig5Row
}

// Fig5 sweeps fixed thresholds δ = 1..9 % at the given relevant-node
// percentage (0.4 for Fig. 5(a), 0.6 for Fig. 5(b)). The nine runs are
// independent and execute on the Options.Workers pool.
func Fig5(o Options, coverage float64) (*Fig5Result, error) {
	rows, err := runSims(o, 9,
		func(i int) (Fig5Row, error) {
			delta := i + 1
			cfg := o.base()
			cfg.Coverage = coverage
			cfg.Mode = scenario.FixedDelta
			cfg.FixedPct = float64(delta)
			r, err := scenario.Run(cfg)
			if err != nil {
				return Fig5Row{}, err
			}
			return Fig5Row{
				DeltaPct:     float64(delta),
				PctShould:    r.Summary.PctShould,
				PctReceive:   r.Summary.PctReceived,
				PctSources:   r.Summary.PctSources,
				PctShouldNot: r.Summary.PctShouldNot,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Coverage: coverage, Rows: rows}, nil
}

// Table renders the panel in the paper's curve order.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fig. 5: effect of delta on accuracy (percentage of relevant nodes = %.0f%%)", r.Coverage*100),
		Comment: "Each row is one fixed threshold; columns are the four curves of the figure\n" +
			"(percentages of the non-root node population, averaged over all queries).",
		Header: []string{"delta(%)", "should_receive(%)", "receive(%)", "sources(%)", "should_not_receive(%)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f1(row.DeltaPct), f1(row.PctShould), f1(row.PctReceive),
			f1(row.PctSources), f1(row.PctShouldNot),
		})
	}
	return t
}
