package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestTupleIntersects(t *testing.T) {
	tu := Tuple{Min: 10, Max: 20}
	cases := []struct {
		lo, hi float64
		want   bool
	}{
		{0, 5, false},
		{0, 10, true},  // touching at min
		{20, 30, true}, // touching at max
		{12, 15, true}, // contained
		{5, 25, true},  // containing
		{21, 30, false},
	}
	for _, c := range cases {
		if tu.Intersects(c.lo, c.hi) != c.want {
			t.Fatalf("[10,20] vs [%v,%v]: want %v", c.lo, c.hi, c.want)
		}
	}
}

func TestObserveReadingHysteresis(t *testing.T) {
	rt := NewRangeTable()
	// First reading always re-centres.
	if !rt.ObserveReading(25, 2) {
		t.Fatal("first reading did not modify the table")
	}
	own, ok := rt.Own()
	if !ok || own.Min != 23 || own.Max != 27 {
		t.Fatalf("own tuple %+v, want [23,27]", own)
	}
	// Readings inside [THmin, THmax] leave the table unchanged (§4.1).
	for _, v := range []float64{23, 24.5, 27} {
		if rt.ObserveReading(v, 2) {
			t.Fatalf("in-range reading %v modified the table", v)
		}
	}
	// A reading outside re-centres.
	if !rt.ObserveReading(27.5, 2) {
		t.Fatal("out-of-range reading did not re-centre")
	}
	own, _ = rt.Own()
	if own.Min != 25.5 || own.Max != 29.5 {
		t.Fatalf("re-centred tuple %+v, want [25.5,29.5]", own)
	}
}

func TestObserveReadingZeroDelta(t *testing.T) {
	rt := NewRangeTable()
	rt.ObserveReading(5, 0)
	if rt.ObserveReading(5, 0) {
		t.Fatal("identical reading with zero delta modified the table")
	}
	if !rt.ObserveReading(5.0001, 0) {
		t.Fatal("any change with zero delta must modify the table")
	}
}

func TestObserveReadingNegativeDeltaPanics(t *testing.T) {
	rt := NewRangeTable()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delta accepted")
		}
	}()
	rt.ObserveReading(1, -1)
}

func TestChildManagement(t *testing.T) {
	rt := NewRangeTable()
	if !rt.SetChild(3, Tuple{1, 2}) {
		t.Fatal("new child entry reported unchanged")
	}
	if rt.SetChild(3, Tuple{1, 2}) {
		t.Fatal("identical child entry reported changed")
	}
	if !rt.SetChild(3, Tuple{1, 3}) {
		t.Fatal("modified child entry reported unchanged")
	}
	if got, ok := rt.Child(3); !ok || got != (Tuple{1, 3}) {
		t.Fatalf("Child(3) = %+v,%v", got, ok)
	}
	if _, ok := rt.Child(9); ok {
		t.Fatal("phantom child")
	}
	if !rt.RemoveChild(3) || rt.RemoveChild(3) {
		t.Fatal("RemoveChild bookkeeping wrong")
	}
}

func TestLenAndEmpty(t *testing.T) {
	rt := NewRangeTable()
	if !rt.Empty() || rt.Len() != 0 {
		t.Fatal("fresh table not empty")
	}
	rt.SetChild(1, Tuple{0, 1})
	rt.SetChild(2, Tuple{0, 1})
	if rt.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rt.Len())
	}
	rt.ObserveReading(5, 1)
	if rt.Len() != 3 {
		t.Fatalf("Len with own = %d, want 3 (n+1 rows, §4.1)", rt.Len())
	}
	rt.ClearOwn()
	rt.RemoveChild(1)
	rt.RemoveChild(2)
	if !rt.Empty() {
		t.Fatal("cleared table not empty")
	}
}

func TestAggregate(t *testing.T) {
	rt := NewRangeTable()
	if _, ok := rt.Aggregate(); ok {
		t.Fatal("empty table produced an aggregate")
	}
	rt.ObserveReading(10, 1) // own [9, 11]
	agg, ok := rt.Aggregate()
	if !ok || agg != (Tuple{9, 11}) {
		t.Fatalf("aggregate %+v", agg)
	}
	rt.SetChild(1, Tuple{5, 8})
	rt.SetChild(2, Tuple{10, 20})
	agg, _ = rt.Aggregate()
	if agg != (Tuple{5, 20}) {
		t.Fatalf("aggregate %+v, want [5,20] (Fig. 2)", agg)
	}
	// Children-only table (forwarding node without the sensor, Fig. 4).
	rt2 := NewRangeTable()
	rt2.SetChild(7, Tuple{-3, 4})
	agg, ok = rt2.Aggregate()
	if !ok || agg != (Tuple{-3, 4}) {
		t.Fatalf("children-only aggregate %+v", agg)
	}
}

func TestDecideUpdateFirstSend(t *testing.T) {
	rt := NewRangeTable()
	if pu := rt.decideUpdate(1); pu.send {
		t.Fatal("empty never-sent table wants to send")
	}
	rt.ObserveReading(10, 1)
	pu := rt.decideUpdate(1)
	if !pu.send || pu.withdraw {
		t.Fatalf("first aggregate not sent: %+v", pu)
	}
	rt.markSent(pu.agg)
	if pu := rt.decideUpdate(1); pu.send {
		t.Fatal("unchanged table wants to resend")
	}
}

func TestDecideUpdateThreshold(t *testing.T) {
	rt := NewRangeTable()
	rt.ObserveReading(10, 1)
	pu := rt.decideUpdate(1)
	rt.markSent(pu.agg) // sent [9, 11]

	// Aggregate moves by <= delta: no update (Fig. 3).
	rt.SetChild(1, Tuple{8.5, 11})
	if pu := rt.decideUpdate(1); pu.send {
		t.Fatalf("min moved 0.5 <= δ=1 but update sent")
	}
	// Aggregate moves by > delta: update due.
	rt.SetChild(2, Tuple{7.5, 11})
	pu = rt.decideUpdate(1)
	if !pu.send {
		t.Fatal("min moved 1.5 > δ=1 but no update")
	}
	if pu.agg != (Tuple{7.5, 11}) {
		t.Fatalf("update payload %+v", pu.agg)
	}
}

func TestDecideUpdateMaxSide(t *testing.T) {
	rt := NewRangeTable()
	rt.ObserveReading(10, 1)
	rt.markSent(Tuple{9, 11})
	rt.SetChild(1, Tuple{9, 12.5})
	if pu := rt.decideUpdate(1); !pu.send {
		t.Fatal("max moved 1.5 > δ=1 but no update")
	}
}

func TestDecideUpdateWithdrawal(t *testing.T) {
	rt := NewRangeTable()
	rt.SetChild(1, Tuple{0, 5})
	pu := rt.decideUpdate(1)
	rt.markSent(pu.agg)
	rt.RemoveChild(1)
	pu = rt.decideUpdate(1)
	if !pu.send || !pu.withdraw {
		t.Fatalf("emptied table should withdraw, got %+v", pu)
	}
	rt.markWithdrawn()
	if pu := rt.decideUpdate(1); pu.send {
		t.Fatal("already-withdrawn table wants to send again")
	}
	if _, ok := rt.LastSent(); ok {
		t.Fatal("LastSent valid after withdrawal")
	}
}

// Property: the aggregate always bounds every row.
func TestPropertyAggregateBoundsRows(t *testing.T) {
	f := func(seed uint64, ops []uint8) bool {
		rng := sim.NewRNG(seed)
		rt := NewRangeTable()
		for _, op := range ops {
			switch op % 3 {
			case 0:
				rt.ObserveReading(rng.Range(-50, 50), rng.Range(0, 5))
			case 1:
				lo := rng.Range(-50, 50)
				rt.SetChild(topology.NodeID(int(op)%5), Tuple{lo, lo + rng.Range(0, 10)})
			case 2:
				rt.RemoveChild(topology.NodeID(int(op) % 5))
			}
		}
		agg, ok := rt.Aggregate()
		if !ok {
			return rt.Empty()
		}
		if own, has := rt.Own(); has {
			if own.Min < agg.Min || own.Max > agg.Max {
				return false
			}
		}
		for _, c := range rt.Children() {
			tu, _ := rt.Child(c)
			if tu.Min < agg.Min || tu.Max > agg.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: with bounded signal excursions, hysteresis bounds the number of
// re-centres — a reading sequence confined to a window of width w can
// re-centre at most once per |w/δ| + 1 exits.
func TestPropertyHysteresisSuppressesStableSignal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		rt := NewRangeTable()
		centre := rng.Range(-100, 100)
		const delta = 4.0
		changes := 0
		for i := 0; i < 1000; i++ {
			// Signal stays within ±1 of centre; δ=4 ⇒ after the first
			// observation the tuple [c-4, c+4] always contains the signal.
			v := centre + rng.Range(-1, 1)
			if rt.ObserveReading(v, delta) {
				changes++
			}
		}
		return changes == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAbs(t *testing.T) {
	if abs(-3) != 3 || abs(3) != 3 || abs(0) != 0 {
		t.Fatal("abs broken")
	}
	if !math.IsInf(abs(math.Inf(-1)), 1) {
		t.Fatal("abs(-inf)")
	}
}

// TestRangeTableMatchesMapModel runs random child-set edits against a plain
// map model: Children (sorted), Child, Len and Aggregate must agree after
// every step. Tuples sometimes carry ±0 and NaN, so the aggregate's fold
// order — own row first, then children by ascending ID — is pinned too.
func TestRangeTableMatchesMapModel(t *testing.T) {
	rng := sim.NewRNG(42)
	values := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.NaN()
		default:
			return rng.Range(-50, 50)
		}
	}
	for run := 0; run < 200; run++ {
		rt := NewRangeTable()
		model := map[topology.NodeID]Tuple{}
		var own *Tuple
		for step := 0; step < 200; step++ {
			id := topology.NodeID(rng.Intn(12))
			switch op := rng.Intn(10); {
			case op < 5:
				tu := Tuple{values(), values()}
				old, had := model[id]
				changed := !had || old != tu
				if got := rt.SetChild(id, tu); got != changed {
					t.Fatalf("run %d step %d: SetChild(%d) = %v, model says %v", run, step, id, got, changed)
				}
				if changed { // an == tuple (±0 alike) keeps the stored one
					model[id] = tu
				}
			case op < 8:
				_, had := model[id]
				if got := rt.RemoveChild(id); got != had {
					t.Fatalf("run %d step %d: RemoveChild(%d) = %v, model says %v", run, step, id, got, had)
				}
				delete(model, id)
			case op < 9:
				v := rng.Range(-50, 50)
				rt.ObserveReading(v, 1)
				tu, _ := rt.Own()
				own = &tu
			default:
				rt.ClearChildren()
				clear(model)
			}
			checkRangeTableModel(t, rt, model, own)
		}
	}
}

func checkRangeTableModel(t *testing.T, rt *RangeTable, model map[topology.NodeID]Tuple, own *Tuple) {
	t.Helper()
	ids := make([]topology.NodeID, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if !slices.Equal(rt.Children(), ids) {
		t.Fatalf("Children = %v, model %v", rt.Children(), ids)
	}
	for id := topology.NodeID(0); id < 12; id++ {
		got, ok := rt.Child(id)
		want, has := model[id]
		if ok != has || math.Float64bits(got.Min) != math.Float64bits(want.Min) ||
			math.Float64bits(got.Max) != math.Float64bits(want.Max) {
			t.Fatalf("Child(%d) = %v %v, model %v %v", id, got, ok, want, has)
		}
	}
	wantLen := len(model)
	if own != nil {
		wantLen++
	}
	if rt.Len() != wantLen {
		t.Fatalf("Len = %d, model %d", rt.Len(), wantLen)
	}
	var rows []Tuple
	if own != nil {
		rows = append(rows, *own)
	}
	for _, id := range ids {
		rows = append(rows, model[id])
	}
	agg, ok := rt.Aggregate()
	if ok != (len(rows) > 0) {
		t.Fatalf("Aggregate ok = %v with %d rows", ok, len(rows))
	}
	if !ok {
		return
	}
	want := rows[0]
	for _, r := range rows[1:] {
		if r.Min < want.Min {
			want.Min = r.Min
		}
		if r.Max > want.Max {
			want.Max = r.Max
		}
	}
	if math.Float64bits(agg.Min) != math.Float64bits(want.Min) ||
		math.Float64bits(agg.Max) != math.Float64bits(want.Max) {
		t.Fatalf("Aggregate = %v, model %v (rows %v)", agg, want, rows)
	}
}

// TestLeafRangeTableAllocFree pins the cost of a leaf table, the common
// case: the struct is its only allocation, and the per-epoch reading cycle
// (observe, aggregate, decide) allocates nothing.
func TestLeafRangeTableAllocFree(t *testing.T) {
	var sink *RangeTable
	if allocs := testing.AllocsPerRun(100, func() { sink = NewRangeTable() }); allocs != 1 {
		t.Fatalf("NewRangeTable allocates %.1f objects, want 1", allocs)
	}
	rt := sink
	v := 10.0
	allocs := testing.AllocsPerRun(1000, func() {
		v = 40 - v
		rt.ObserveReading(v, 2)
		if _, ok := rt.Aggregate(); !ok {
			t.Fatal("no aggregate")
		}
		if u := rt.decideUpdate(2); u.send {
			rt.markSent(u.agg)
		}
	})
	if allocs != 0 {
		t.Fatalf("leaf observe+aggregate+decide cycle allocates %.1f objects, want 0", allocs)
	}
}
