package query

import (
	"math"
	"testing"

	"repro/internal/sensordata"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestQueryMatches(t *testing.T) {
	q := Query{Type: sensordata.Temperature, Lo: 22, Hi: 25}
	for v, want := range map[float64]bool{21.9: false, 22: true, 23.5: true, 25: true, 25.1: false} {
		if q.Matches(v) != want {
			t.Fatalf("Matches(%v) = %v, want %v", v, !want, want)
		}
	}
}

func TestQueryString(t *testing.T) {
	q := Query{ID: 3, Type: sensordata.Humidity, Lo: 10, Hi: 20}
	if q.String() == "" {
		t.Fatal("empty String")
	}
}

// fixedTree builds the 7-node example tree with all nodes mounting all types.
//
//	     0
//	   / | \
//	  1  2  3
//	 / \     \
//	4   5     6
func fixedTree(t *testing.T) (*topology.Tree, []sensordata.TypeSet) {
	t.Helper()
	tr := topology.NewTree(0)
	for _, e := range [][2]topology.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {1, 5}, {3, 6}} {
		if err := tr.Attach(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return tr, sensordata.AssignAllTypes(7)
}

func TestResolveSourcesAndForwarders(t *testing.T) {
	tr, mounted := fixedTree(t)
	// Node values: only nodes 4 and 6 match [10, 20].
	vals := map[topology.NodeID]float64{1: 50, 2: 50, 3: 50, 4: 15, 5: 50, 6: 12}
	q := Query{Type: sensordata.Temperature, Lo: 10, Hi: 20}
	gt := Resolve(q, tr, mounted, func(id topology.NodeID) float64 { return vals[id] })
	if len(gt.Sources) != 2 {
		t.Fatalf("sources = %v, want [4 6]", gt.Sources)
	}
	// Should = {4, 1} ∪ {6, 3}; root excluded.
	want := map[topology.NodeID]bool{1: true, 3: true, 4: true, 6: true}
	if gt.Should.Len() != len(want) {
		t.Fatalf("Should = %v, want %v", gt.Should.IDs(), want)
	}
	for id := range want {
		if !gt.Should.Has(id) {
			t.Fatalf("missing %d in Should set %v", id, gt.Should.IDs())
		}
	}
	if gt.Should.Has(0) {
		t.Fatal("root in Should set")
	}
}

func TestResolveRespectsMountedTypes(t *testing.T) {
	tr, _ := fixedTree(t)
	mounted := make([]sensordata.TypeSet, 7)
	for i := 1; i < 7; i++ {
		mounted[i] = sensordata.TypeSet(0).With(sensordata.Humidity)
	}
	// Node 4 additionally has temperature.
	mounted[4] = mounted[4].With(sensordata.Temperature)
	q := Query{Type: sensordata.Temperature, Lo: 0, Hi: 100}
	gt := Resolve(q, tr, mounted, func(topology.NodeID) float64 { return 50 })
	if len(gt.Sources) != 1 || gt.Sources[0] != 4 {
		t.Fatalf("sources = %v, want [4] (only node with the sensor)", gt.Sources)
	}
}

func TestResolveEmptyResult(t *testing.T) {
	tr, mounted := fixedTree(t)
	q := Query{Type: sensordata.Temperature, Lo: 10, Hi: 20}
	gt := Resolve(q, tr, mounted, func(topology.NodeID) float64 { return 99 })
	if len(gt.Sources) != 0 || gt.Should.Len() != 0 {
		t.Fatalf("expected empty ground truth, got %+v", gt)
	}
	if gt.InvolvedFraction(7) != 0 {
		t.Fatal("InvolvedFraction of empty set non-zero")
	}
}

func TestInvolvedFraction(t *testing.T) {
	var gt GroundTruth
	for _, id := range []topology.NodeID{1, 2, 3} {
		gt.Should.Add(id)
	}
	if f := gt.InvolvedFraction(7); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("InvolvedFraction = %v, want 0.5 (3 of 6 non-root)", f)
	}
	if gt.InvolvedFraction(1) != 0 {
		t.Fatal("single-node network should report 0")
	}
}

func newTestNetwork(t *testing.T, seed uint64) (*topology.Tree, []sensordata.TypeSet, *sensordata.Generator, *sim.RNG) {
	t.Helper()
	rng := sim.NewRNG(seed)
	g, err := topology.PlaceRandom(topology.DefaultPlacement(), rng.Stream("place"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := topology.BuildSpanningTree(g, topology.Root, 8, 10)
	if err != nil {
		t.Skip("spanning tree caps too tight for this draw")
	}
	pos := make([]topology.Position, g.Len())
	for i := range pos {
		pos[i] = g.Pos(topology.NodeID(i))
	}
	gen := sensordata.NewGenerator(pos, rng.Stream("data"))
	return tr, sensordata.AssignAllTypes(g.Len()), gen, rng
}

func TestWorkloadHitsTargetCoverage(t *testing.T) {
	for _, target := range []float64{0.2, 0.4, 0.6} {
		tr, mounted, gen, rng := newTestNetwork(t, 42)
		w, err := NewWorkload(target, rng.Stream("workload"))
		if err != nil {
			t.Fatal(err)
		}
		var sumErr float64
		const nq = 40
		for i := 0; i < nq; i++ {
			q, gt := w.Next(gen, tr, mounted)
			if q.Lo > q.Hi {
				t.Fatalf("inverted range %+v", q)
			}
			sumErr += math.Abs(gt.InvolvedFraction(tr.Len()) - target)
			for j := 0; j < 20; j++ {
				gen.Step()
			}
		}
		if avg := sumErr / nq; avg > 0.08 {
			t.Fatalf("target %v: mean coverage error %v too large", target, avg)
		}
	}
}

func TestWorkloadRotatesTypes(t *testing.T) {
	tr, mounted, gen, rng := newTestNetwork(t, 7)
	w, err := NewWorkload(0.4, rng.Stream("workload"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[sensordata.Type]bool{}
	for i := 0; i < int(sensordata.NumTypes); i++ {
		q, _ := w.Next(gen, tr, mounted)
		seen[q.Type] = true
	}
	if len(seen) != int(sensordata.NumTypes) {
		t.Fatalf("types seen %v, want all %d", seen, sensordata.NumTypes)
	}
}

func TestWorkloadIDsMonotonic(t *testing.T) {
	tr, mounted, gen, rng := newTestNetwork(t, 9)
	w, _ := NewWorkload(0.3, rng.Stream("w"))
	var last int64 = -1
	for i := 0; i < 10; i++ {
		q, _ := w.Next(gen, tr, mounted)
		if q.ID <= last {
			t.Fatalf("IDs not monotonic: %d after %d", q.ID, last)
		}
		last = q.ID
	}
}

func TestWorkloadNoMountedType(t *testing.T) {
	tr, _, gen, rng := newTestNetwork(t, 11)
	mounted := make([]sensordata.TypeSet, tr.Len()) // nobody has sensors
	w, _ := NewWorkload(0.4, rng.Stream("w"))
	q, gt := w.Next(gen, tr, mounted)
	if len(gt.Sources) != 0 {
		t.Fatalf("sources %v for sensorless network", gt.Sources)
	}
	if q.Lo > q.Hi {
		t.Fatal("unsatisfiable query has inverted range")
	}
}

func TestWorkloadValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := NewWorkload(0, rng); err == nil {
		t.Fatal("target 0 accepted")
	}
	if _, err := NewWorkload(1.5, rng); err == nil {
		t.Fatal("target 1.5 accepted")
	}
}

func TestPredictorConstantRate(t *testing.T) {
	p, err := NewPredictor(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if p.PredictNextHour() != 0 {
		t.Fatal("forecast before history non-zero")
	}
	for h := 0; h < 10; h++ {
		for i := 0; i < 5; i++ {
			p.Observe()
		}
		p.EndHour()
	}
	if got := p.PredictNextHour(); got != 5 {
		t.Fatalf("constant-rate forecast = %d, want 5", got)
	}
}

func TestPredictorTracksChange(t *testing.T) {
	p, _ := NewPredictor(0.5)
	for h := 0; h < 5; h++ {
		for i := 0; i < 2; i++ {
			p.Observe()
		}
		p.EndHour()
	}
	low := p.PredictNextHour()
	for h := 0; h < 8; h++ {
		for i := 0; i < 20; i++ {
			p.Observe()
		}
		p.EndHour()
	}
	high := p.PredictNextHour()
	if high <= low {
		t.Fatalf("forecast did not rise with load: %d -> %d", low, high)
	}
	if high < 15 {
		t.Fatalf("forecast %d too sluggish for sustained load of 20/hr", high)
	}
}

func TestPredictorValidation(t *testing.T) {
	if _, err := NewPredictor(0); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	if _, err := NewPredictor(2); err == nil {
		t.Fatal("alpha 2 accepted")
	}
}

func TestResolveGeo(t *testing.T) {
	tr, mounted := fixedTree(t)
	positions := map[topology.NodeID]topology.Position{
		1: {X: 10, Y: 10}, 2: {X: 90, Y: 10}, 3: {X: 50, Y: 50},
		4: {X: 12, Y: 14}, 5: {X: 15, Y: 80}, 6: {X: 52, Y: 55},
	}
	pos := func(id topology.NodeID) topology.Position { return positions[id] }
	val := func(topology.NodeID) float64 { return 20 } // everyone matches on value
	q := Query{Type: sensordata.Temperature, Lo: 0, Hi: 50}

	rect := topology.Rect{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30}
	gt := ResolveGeo(q, rect, tr, mounted, val, pos)
	// Only nodes 1 and 4 are inside the rect.
	if len(gt.Sources) != 2 {
		t.Fatalf("geo sources %v, want nodes 1 and 4", gt.Sources)
	}
	for _, s := range gt.Sources {
		if s != 1 && s != 4 {
			t.Fatalf("out-of-rect source %d", s)
		}
	}
	// Forwarding closure: node 1 is on node 4's path; should = {1, 4}.
	if gt.Should.Len() != 2 || !gt.Should.Has(1) || !gt.Should.Has(4) {
		t.Fatalf("geo Should = %v", gt.Should.IDs())
	}

	// Empty rectangle coverage.
	empty := topology.Rect{MinX: 200, MinY: 200, MaxX: 210, MaxY: 210}
	if gt := ResolveGeo(q, empty, tr, mounted, val, pos); len(gt.Sources) != 0 {
		t.Fatalf("sources %v for empty-region rect", gt.Sources)
	}
}

func TestWorkloadDeterministicGivenSeed(t *testing.T) {
	run := func() []Query {
		tr, mounted, gen, _ := newTestNetwork(t, 77)
		w, err := NewWorkload(0.4, sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		var qs []Query
		for i := 0; i < 8; i++ {
			q, _ := w.Next(gen, tr, mounted)
			qs = append(qs, q)
			gen.Step()
		}
		return qs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workload diverged at query %d: %v vs %v", i, a[i], b[i])
		}
	}
}
