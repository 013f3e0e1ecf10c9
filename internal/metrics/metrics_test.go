package metrics

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
)

func record(should, received, sources []topology.NodeID) *core.QueryRecord {
	r := &core.QueryRecord{Truth: query.GroundTruth{Sources: sources}}
	for _, id := range should {
		r.Truth.Should.Add(id)
	}
	for _, id := range received {
		r.Received.Add(id)
	}
	return r
}

func TestEvalExactMatch(t *testing.T) {
	r := record([]topology.NodeID{1, 2, 3}, []topology.NodeID{1, 2, 3}, []topology.NodeID{3})
	a := Eval(r, 51)
	if a.NumShould != 3 || a.NumReceived != 3 || a.NumSources != 1 {
		t.Fatalf("counts %+v", a)
	}
	if a.NumWrong != 0 || a.NumMissed != 0 || a.OvershootPct != 0 {
		t.Fatalf("perfect delivery scored %+v", a)
	}
}

func TestEvalOvershoot(t *testing.T) {
	r := record([]topology.NodeID{1, 2}, []topology.NodeID{1, 2, 3, 4}, nil)
	a := Eval(r, 51)
	if a.NumWrong != 2 {
		t.Fatalf("NumWrong = %d, want 2", a.NumWrong)
	}
	if a.OvershootPct != 4 { // 2 of 50 non-root nodes
		t.Fatalf("overshoot %v, want 4", a.OvershootPct)
	}
	if a.RelOvershootPct != 100 {
		t.Fatalf("relative overshoot %v, want 100", a.RelOvershootPct)
	}
}

func TestEvalUndershoot(t *testing.T) {
	r := record([]topology.NodeID{1, 2, 3, 4}, []topology.NodeID{1}, nil)
	a := Eval(r, 51)
	if a.NumMissed != 3 {
		t.Fatalf("NumMissed = %d, want 3", a.NumMissed)
	}
	if a.OvershootPct != 0 {
		t.Fatalf("overshoot %v, want 0", a.OvershootPct)
	}
}

func TestEvalEmptyTruth(t *testing.T) {
	r := record(nil, nil, nil)
	if a := Eval(r, 51); a.OvershootPct != 0 || a.RelOvershootPct != 0 {
		t.Fatalf("empty query overshoot %+v", a)
	}
	r = record(nil, []topology.NodeID{5}, nil)
	a := Eval(r, 51)
	if !math.IsInf(a.RelOvershootPct, 1) {
		t.Fatalf("wrong delivery on empty truth: relative overshoot %v, want +Inf", a.RelOvershootPct)
	}
	if a.OvershootPct != 2 {
		t.Fatalf("wrong delivery on empty truth: overshoot %v, want 2", a.OvershootPct)
	}
}

func TestPct(t *testing.T) {
	if p := Pct(10, 51); math.Abs(p-20) > 1e-12 {
		t.Fatalf("Pct(10, 51) = %v, want 20 (of 50 non-root)", p)
	}
	if Pct(5, 1) != 0 || Pct(5, 0) != 0 {
		t.Fatal("degenerate populations should give 0")
	}
}

func TestSummarize(t *testing.T) {
	accs := []Accuracy{
		{NumShould: 10, NumReceived: 12, NumSources: 5, NumWrong: 2, OvershootPct: 4},
		{NumShould: 20, NumReceived: 20, NumSources: 10, NumWrong: 0, OvershootPct: 0},
	}
	s := Summarize(accs, 51)
	if s.Queries != 2 {
		t.Fatalf("Queries = %d", s.Queries)
	}
	if math.Abs(s.PctShould-30) > 1e-9 { // (20% + 40%) / 2
		t.Fatalf("PctShould = %v, want 30", s.PctShould)
	}
	if math.Abs(s.MeanOvershoot-2) > 1e-9 {
		t.Fatalf("MeanOvershoot = %v, want 2", s.MeanOvershoot)
	}
	if math.Abs(s.PctShouldNot-2) > 1e-9 { // (4% + 0%) / 2
		t.Fatalf("PctShouldNot = %v, want 2", s.PctShouldNot)
	}
}

func TestSummarizeAveragesOvershoot(t *testing.T) {
	accs := []Accuracy{
		{NumShould: 0, NumWrong: 3, OvershootPct: 6, RelOvershootPct: math.Inf(1)},
		{NumShould: 10, NumWrong: 1, OvershootPct: 2, RelOvershootPct: 10},
	}
	s := Summarize(accs, 51)
	if s.MeanOvershoot != 4 {
		t.Fatalf("MeanOvershoot = %v, want 4 (population-relative, always finite)", s.MeanOvershoot)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, 51)
	if s.Queries != 0 || s.MeanOvershoot != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestSeriesBuckets(t *testing.T) {
	s := NewSeries(100)
	s.Add(0, 1)
	s.Add(99, 2)
	s.Add(100, 5)
	s.Add(250, 7)
	bs := s.Buckets()
	if len(bs) != 3 {
		t.Fatalf("%d buckets, want 3", len(bs))
	}
	if bs[0].Sum != 3 || bs[0].Count != 2 || bs[0].Start != 0 {
		t.Fatalf("bucket 0 %+v", bs[0])
	}
	if bs[1].Sum != 5 || bs[1].Start != 100 {
		t.Fatalf("bucket 1 %+v", bs[1])
	}
	if bs[2].Sum != 7 || bs[2].Start != 200 {
		t.Fatalf("bucket 2 %+v", bs[2])
	}
	if bs[0].Mean() != 1.5 {
		t.Fatalf("bucket 0 mean %v", bs[0].Mean())
	}
	if (Bucket{}).Mean() != 0 {
		t.Fatal("empty bucket mean not 0")
	}
}

func TestSeriesValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width 0 accepted")
		}
	}()
	NewSeries(0)
}

func TestSeriesNegativeEpochPanics(t *testing.T) {
	s := NewSeries(10)
	defer func() {
		if recover() == nil {
			t.Fatal("negative epoch accepted")
		}
	}()
	s.Add(-1, 1)
}

func TestSeriesSums(t *testing.T) {
	s := NewSeries(10)
	s.Add(5, 2)
	s.Add(15, 3)
	sums := s.Sums()
	if len(sums) != 2 || sums[0] != 2 || sums[1] != 3 {
		t.Fatalf("Sums = %v", sums)
	}
	sums[0] = 99 // must be a copy
	if s.Sums()[0] != 2 {
		t.Fatal("Sums aliases internal state")
	}
}

func TestDescribe(t *testing.T) {
	s := Describe([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
	if s.Mean != 2.5 {
		t.Fatalf("mean %v", s.Mean)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Fatalf("median %v", s.Median)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("std %v", s.Std)
	}
}

func TestDescribeEdgeCases(t *testing.T) {
	if s := Describe(nil); s.N != 0 {
		t.Fatal("empty describe")
	}
	s := Describe([]float64{7})
	if s.Mean != 7 || s.Median != 7 || s.Std != 0 || s.P25 != 7 || s.P75 != 7 {
		t.Fatalf("singleton summary %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := Describe([]float64{0, 10})
	if s.P25 != 2.5 || s.Median != 5 || s.P75 != 7.5 {
		t.Fatalf("quantiles %+v", s)
	}
}

// evalReference is Eval's counting over plain map sets, as Eval once
// computed it: every member of one set looked up in the other.
func evalReference(should, received map[topology.NodeID]bool) (wrong, missed int) {
	for id := range received {
		if !should[id] {
			wrong++
		}
	}
	for id := range should {
		if !received[id] {
			missed++
		}
	}
	return wrong, missed
}

// TestEvalMatchesMapReference draws random should and received sets of
// random sizes and densities, across word boundaries, and holds Eval's
// counts to the map-based reference.
func TestEvalMatchesMapReference(t *testing.T) {
	rng := sim.NewRNG(31)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		pShould, pReceived := rng.Float64(), rng.Float64()
		should, received := map[topology.NodeID]bool{}, map[topology.NodeID]bool{}
		var shouldIDs, receivedIDs []topology.NodeID
		for i := 1; i < n; i++ {
			id := topology.NodeID(i)
			if rng.Bool(pShould) {
				should[id] = true
				shouldIDs = append(shouldIDs, id)
			}
			if rng.Bool(pReceived) {
				received[id] = true
				receivedIDs = append(receivedIDs, id)
			}
		}
		a := Eval(record(shouldIDs, receivedIDs, nil), n)
		wrong, missed := evalReference(should, received)
		if a.NumShould != len(should) || a.NumReceived != len(received) ||
			a.NumWrong != wrong || a.NumMissed != missed {
			t.Fatalf("trial %d (n %d): got should %d received %d wrong %d missed %d, want %d %d %d %d",
				trial, n, a.NumShould, a.NumReceived, a.NumWrong, a.NumMissed,
				len(should), len(received), wrong, missed)
		}
	}
}
