package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Accuracy is the per-query accuracy accounting of §7.1.
type Accuracy struct {
	QueryID int64
	// NumShould counts nodes that should receive the query: ground-truth
	// sources plus intermediate forwarding nodes.
	NumShould int
	// NumReceived counts nodes that actually received the query.
	NumReceived int
	// NumSources counts ground-truth source nodes.
	NumSources int
	// NumWrong counts nodes that received the query but should not have
	// (Fig. 5's "Nodes that SHOULD NOT receive a query").
	NumWrong int
	// NumMissed counts nodes that should have received the query but did
	// not (stale ranges can under-approximate as well as over-approximate).
	NumMissed int
	// OvershootPct is NumWrong as a percentage of the non-root population —
	// the vertical gap between Fig. 5's "nodes that RECEIVE" and "nodes
	// that SHOULD receive" curves, and the y-axis of Fig. 7.
	OvershootPct float64
	// RelOvershootPct is 100 * NumWrong / NumShould — the overshoot
	// relative to the relevant-node set (+Inf when NumShould is 0 but nodes
	// were reached anyway; 0 when both are 0).
	RelOvershootPct float64
}

// Eval computes the accuracy of one completed query record against its
// ground truth captured at injection time, for a network of n nodes.
func Eval(rec *core.QueryRecord, n int) Accuracy {
	a := Accuracy{
		QueryID:     rec.Query.ID,
		NumShould:   rec.Truth.Should.Len(),
		NumReceived: rec.Received.Len(),
		NumSources:  len(rec.Truth.Sources),
		NumWrong:    rec.Received.CountNotIn(rec.Truth.Should),
		NumMissed:   rec.Truth.Should.CountNotIn(rec.Received),
	}
	a.OvershootPct = Pct(a.NumWrong, n)
	switch {
	case a.NumShould > 0:
		a.RelOvershootPct = 100 * float64(a.NumWrong) / float64(a.NumShould)
	case a.NumWrong > 0:
		a.RelOvershootPct = math.Inf(1)
	}
	return a
}

// Pct expresses a count as a percentage of the non-root population.
func Pct(count, n int) float64 {
	if n <= 1 {
		return 0
	}
	return 100 * float64(count) / float64(n-1)
}

// AccuracySummary aggregates per-query accuracies into the Fig. 5 row
// quantities, as percentages of the non-root node population.
type AccuracySummary struct {
	Queries       int
	PctShould     float64 // mean % of nodes that should receive
	PctReceived   float64 // mean % of nodes that do receive
	PctSources    float64 // mean % source nodes
	PctShouldNot  float64 // mean % wrongly reached nodes
	MeanOvershoot float64 // mean overshoot % (finite queries only)
}

// Summarize averages accuracies over queries for a network of n nodes.
func Summarize(accs []Accuracy, n int) AccuracySummary {
	var s AccuracySummary
	if len(accs) == 0 {
		return s
	}
	for _, a := range accs {
		s.PctShould += Pct(a.NumShould, n)
		s.PctReceived += Pct(a.NumReceived, n)
		s.PctSources += Pct(a.NumSources, n)
		s.PctShouldNot += Pct(a.NumWrong, n)
		s.MeanOvershoot += a.OvershootPct
	}
	q := float64(len(accs))
	s.Queries = len(accs)
	s.PctShould /= q
	s.PctReceived /= q
	s.PctSources /= q
	s.PctShouldNot /= q
	s.MeanOvershoot /= q
	return s
}

// Series accumulates a value per fixed-width epoch bucket — the Fig. 6 / 7
// "every 100 epochs" plots.
type Series struct {
	width int64
	sums  []float64
	cnts  []int64
}

// NewSeries creates a series with the given bucket width in epochs.
func NewSeries(width int64) *Series {
	if width < 1 {
		panic(fmt.Sprintf("metrics: bucket width %d < 1", width))
	}
	return &Series{width: width}
}

func (s *Series) grow(b int) {
	for len(s.sums) <= b {
		s.sums = append(s.sums, 0)
		s.cnts = append(s.cnts, 0)
	}
}

// Add accumulates v into the bucket containing epoch.
func (s *Series) Add(epoch int64, v float64) {
	if epoch < 0 {
		panic("metrics: negative epoch")
	}
	b := int(epoch / s.width)
	s.grow(b)
	s.sums[b] += v
	s.cnts[b]++
}

// Bucket is one aggregated interval.
type Bucket struct {
	Start int64 // first epoch of the bucket
	Sum   float64
	Count int64
}

// Mean returns Sum/Count, or 0 for an empty bucket.
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// Buckets returns all buckets in order.
func (s *Series) Buckets() []Bucket {
	out := make([]Bucket, len(s.sums))
	for i := range s.sums {
		out[i] = Bucket{Start: int64(i) * s.width, Sum: s.sums[i], Count: s.cnts[i]}
	}
	return out
}

// Sums returns the per-bucket sums.
func (s *Series) Sums() []float64 { return append([]float64(nil), s.sums...) }

// Summary describes a sample distribution.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	P25, Median, P75 float64
}

// Describe computes a Summary of the given samples.
func Describe(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	for _, v := range sorted {
		s.Mean += v
	}
	s.Mean /= float64(s.N)
	for _, v := range sorted {
		d := v - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(s.N))
	s.P25 = quantile(sorted, 0.25)
	s.Median = quantile(sorted, 0.5)
	s.P75 = quantile(sorted, 0.75)
	return s
}

// quantile interpolates linearly on a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
