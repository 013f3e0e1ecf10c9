package experiments

import (
	"fmt"

	"repro/internal/scenario"
)

// Fig7Series is one overshoot-over-time curve.
type Fig7Series struct {
	Label string
	// Buckets holds the mean per-query overshoot (% of nodes wrongly
	// reached) per 100-epoch bucket.
	Buckets []float64
	// Mean is the run-wide average overshoot — the paper quotes ≈3.6 % for
	// the ATC at 20 % relevant nodes.
	Mean float64
}

// Fig7Result reproduces Fig. 7: overshoot under fixed δ = 3/5/9 % and ATC.
type Fig7Result struct {
	Coverage float64
	Series   []Fig7Series
}

// Fig7 runs the four configurations at the given coverage (the paper's
// panel uses 20 %), in parallel on the Options.Workers pool.
func Fig7(o Options, coverage float64) (*Fig7Result, error) {
	configs := thresholdSweep()
	series, err := runSims(o, len(configs),
		func(i int) (Fig7Series, error) {
			c := configs[i]
			cfg := o.base()
			cfg.Coverage = coverage
			cfg.Mode = c.mode
			cfg.FixedPct = c.pct
			r, err := scenario.Run(cfg)
			if err != nil {
				return Fig7Series{}, err
			}
			s := Fig7Series{Label: c.label, Mean: r.Summary.MeanOvershoot}
			for _, b := range r.OvershootPerBucket {
				s.Buckets = append(s.Buckets, b.Mean())
			}
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Coverage: coverage, Series: series}, nil
}

// Table renders the overshoot series plus the per-series means.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fig. 7: overshoot using different delta and the ATC (percentage of relevant nodes = %.0f%%)", r.Coverage*100),
		Comment: "Overshoot = nodes wrongly reached as % of the non-root population,\n" +
			"averaged over the queries in each 100-epoch bucket. Final row: run-wide mean.",
		Header: []string{"epoch"},
	}
	maxLen := 0
	for _, s := range r.Series {
		t.Header = append(t.Header, s.Label)
		if len(s.Buckets) > maxLen {
			maxLen = len(s.Buckets)
		}
	}
	for b := 0; b < maxLen; b++ {
		row := []string{fmt.Sprintf("%d", (b+1)*100)}
		for _, s := range r.Series {
			if b < len(s.Buckets) {
				row = append(row, f2(s.Buckets[b]))
			} else {
				row = append(row, "")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	mean := []string{"mean"}
	for _, s := range r.Series {
		mean = append(mean, f2(s.Mean))
	}
	t.Rows = append(t.Rows, mean)
	return t
}
