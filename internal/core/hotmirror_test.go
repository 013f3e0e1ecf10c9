package core_test

import (
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/script"
	"repro/internal/sensordata"
	"repro/internal/topology"
)

// TestGatedWindowsMirrorOwnTuples checks, after every epoch of a scripted
// 1000-node fixed-δ run, the invariant the apply fast path rests on: for
// every live, deployed, gated node and mounted type the sweep window
// equals the range table's own tuple, or is the always-active sentinel
// (+Inf, -Inf) when there is none; unmounted types hold the never-active
// window (-Inf, +Inf).
func TestGatedWindowsMirrorOwnTuples(t *testing.T) {
	cfg := scenario.ScaleDefault(1000)
	cfg.Mode = scenario.FixedDelta
	cfg.Heterogeneous = true
	cfg.Epochs = 600
	r, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &script.Script{Events: []script.Event{
		{At: 60, Op: script.OpKill},
		{At: 120, Op: script.OpCascade, Count: 3, Spacing: 25},
		{At: 200, Op: script.OpShift, Type: "temperature", Delta: 6},
		{At: 260, Op: script.OpDrift, Scale: 4},
		{At: 330, Op: script.OpRetune, Delta: 2},
		{At: 400, Op: script.OpShift, Type: "humidity", Delta: -8},
		{At: 450, Op: script.OpDrift, Type: "light", Scale: 0.25},
		{At: 500, Op: script.OpRetune, Delta: 8},
	}}
	events, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	var checked, moved int
	prev := map[[2]int]float64{}
	for next := 0; !r.Done(); {
		for ; next < len(events) && events[next].At == r.Epoch(); next++ {
			if _, ok, note := script.Apply(r, events[next]); !ok {
				t.Fatalf("epoch %d: %v not applied: %s", r.Epoch(), events[next], note)
			}
		}
		r.Step(1)
		for i := range r.Graph.Len() {
			id := topology.NodeID(i)
			if !r.Channel.Alive(id) || !r.Proto.GatedDeployed(i) {
				continue
			}
			node := r.Proto.Node(id)
			for _, ty := range sensordata.AllTypes() {
				lo, hi := r.Proto.HotWindow(i, ty)
				wantLo, wantHi := math.Inf(-1), math.Inf(1)
				if node.Mounted().Has(ty) {
					wantLo, wantHi = math.Inf(1), math.Inf(-1)
					if rt := node.Table(ty); rt != nil {
						if own, ok := rt.Own(); ok {
							wantLo, wantHi = own.Min, own.Max
							checked++
							key := [2]int{i, int(ty)}
							if p, seen := prev[key]; seen && p != own.Min {
								moved++
							}
							prev[key] = own.Min
						}
					}
				}
				if lo != wantLo || hi != wantHi {
					t.Fatalf("epoch %d, node %d, %v: window [%v, %v], want [%v, %v]",
						r.Epoch(), i, ty, lo, hi, wantLo, wantHi)
				}
			}
		}
	}
	// Guard against a vacuous pass: own tuples existed and kept moving.
	if checked == 0 || moved == 0 {
		t.Fatalf("checked %d own-tuple windows, %d re-centred: the run exercised nothing", checked, moved)
	}
	t.Logf("checked %d own-tuple windows, %d re-centred", checked, moved)
}
