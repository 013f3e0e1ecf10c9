package experiments

import (
	"fmt"

	"repro/internal/scenario"
)

// Fig6Series is one curve of Fig. 6: update messages transmitted per
// 100-epoch bucket for one threshold configuration.
type Fig6Series struct {
	Label   string
	Buckets []float64
}

// Fig6Result reproduces Fig. 6: the update traffic of fixed δ = 3/5/9 %
// and of the ATC, against the Umax/Hr reference band.
type Fig6Result struct {
	Coverage    float64
	Series      []Fig6Series
	UmaxPerHour float64 // reference line
	Band45      float64 // 0.45 * Umax
	Band55      float64 // 0.55 * Umax
}

// Fig6 runs the four configurations at the given coverage (the paper's
// panel uses 40 %), in parallel on the Options.Workers pool.
func Fig6(o Options, coverage float64) (*Fig6Result, error) {
	configs := thresholdSweep()
	type out struct {
		series Fig6Series
		umax   float64
	}
	outs, err := runSims(o, len(configs),
		func(i int) (out, error) {
			c := configs[i]
			cfg := o.base()
			cfg.Coverage = coverage
			cfg.Mode = c.mode
			cfg.FixedPct = c.pct
			r, err := scenario.Run(cfg)
			if err != nil {
				return out{}, err
			}
			v := out{series: Fig6Series{Label: c.label, Buckets: r.UpdateTxPerBucket}}
			if c.mode == scenario.ATC {
				v.umax = r.UmaxPerHour
			}
			return v, nil
		})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Coverage: coverage}
	for i, v := range outs {
		res.Series = append(res.Series, v.series)
		if configs[i].mode == scenario.ATC {
			res.UmaxPerHour = v.umax
			res.Band45 = 0.45 * v.umax
			res.Band55 = 0.55 * v.umax
		}
	}
	return res, nil
}

// thresholdConfig is one curve of the Fig. 6/7 sweeps.
type thresholdConfig struct {
	label string
	mode  scenario.ThresholdMode
	pct   float64
}

// thresholdSweep returns the paper's four threshold configurations in
// curve order: fixed δ = 3/5/9 % then the ATC.
func thresholdSweep() []thresholdConfig {
	var cs []thresholdConfig
	for _, pct := range []float64{3, 5, 9} {
		cs = append(cs, thresholdConfig{fmt.Sprintf("delta=%.0f%%", pct), scenario.FixedDelta, pct})
	}
	return append(cs, thresholdConfig{"delta=ATC", scenario.ATC, 0})
}

// Table renders the series as one row per bucket.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fig. 6: update messages per 100 epochs (percentage of relevant nodes = %.0f%%)", r.Coverage*100),
		Comment: fmt.Sprintf("Reference lines: Umax/Hr = %.0f, 0.55*Umax = %.0f, 0.45*Umax = %.0f.\n"+
			"The ATC column should settle inside the band.", r.UmaxPerHour, r.Band55, r.Band45),
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
				row = append(row, fmt.Sprintf("%.0f", s.Buckets[b]))
			} else {
				row = append(row, "")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// SteadyStateMeans returns each series' mean bucket value over the second
// half of the run (after ATC convergence).
func (r *Fig6Result) SteadyStateMeans() map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.Series {
		if len(s.Buckets) == 0 {
			continue
		}
		half := s.Buckets[len(s.Buckets)/2:]
		sum := 0.0
		for _, v := range half {
			sum += v
		}
		out[s.Label] = sum / float64(len(half))
	}
	return out
}
