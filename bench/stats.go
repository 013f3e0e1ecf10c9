package main

import (
	"slices"
	"time"
)

// summary is a sample set reduced to its median and quartiles.
type summary struct {
	Median float64
	P25    float64
	P75    float64
	N      int
}

// summarize computes the median and the quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// spreads printed here match the ones an outside check computes.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := quartiles(s)
	return summary{Median: median(s), P25: q[0], P75: q[2], N: len(s)}
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of an ascending slice, by statistics.quantiles' exclusive
// method; a single sample is all three quartiles.
func quartiles(s []float64) [3]float64 {
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// inUnit expresses durations as multiples of unit.
func inUnit(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
