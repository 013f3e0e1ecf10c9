package flood

import (
	"testing"

	"repro/internal/analytic"
	"repro/internal/radio"
	"repro/internal/topology"
)

func TestFloodLineCost(t *testing.T) {
	g, err := topology.PlaceLine(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	res := Disseminate(ch, 0, "q")
	if len(res.Reached) != 5 {
		t.Fatalf("reached %d nodes, want 5", len(res.Reached))
	}
	// Eq. (3): N + 2*links = 5 + 2*4 = 13.
	if res.Cost.Tx != 5 || res.Cost.Rx != 8 {
		t.Fatalf("cost %+v, want tx=5 rx=8", res.Cost)
	}
	if res.Cost.Total() != 13 {
		t.Fatalf("total %d, want 13", res.Cost.Total())
	}
}

func TestFloodMatchesAnalyticOnKaryTree(t *testing.T) {
	// Simulation cross-check of eq. (4) for several (k, d).
	for _, c := range []struct{ k, d int }{{2, 4}, {3, 2}, {8, 2}, {2, 6}} {
		g, _, err := topology.BuildKaryTree(c.k, c.d)
		if err != nil {
			t.Fatal(err)
		}
		ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
		res := Disseminate(ch, topology.Root, nil)
		want, err := analytic.CFTotal(c.k, c.d)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.Total() != want {
			t.Fatalf("k=%d d=%d: simulated flood cost %d, analytic %d",
				c.k, c.d, res.Cost.Total(), want)
		}
	}
}

func TestFloodSkipsDeadNodes(t *testing.T) {
	g, err := topology.PlaceLine(5, 1) // 0-1-2-3-4
	if err != nil {
		t.Fatal(err)
	}
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	ch.SetAlive(2, false) // partitions the line
	res := Disseminate(ch, 0, nil)
	if len(res.Reached) != 2 {
		t.Fatalf("reached %v, want [0 1]", res.Reached)
	}
	// tx = 2 (nodes 0,1 broadcast), rx = 2 (one live link, both directions).
	if res.Cost.Tx != 2 || res.Cost.Rx != 2 {
		t.Fatalf("cost %+v, want tx=2 rx=2", res.Cost)
	}
}

func TestFloodFromDeadOrigin(t *testing.T) {
	g, _ := topology.PlaceLine(3, 1)
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	ch.SetAlive(0, false)
	res := Disseminate(ch, 0, nil)
	if len(res.Reached) != 0 || res.Cost.Total() != 0 {
		t.Fatalf("dead-origin flood produced %+v", res)
	}
}

func TestFloodDeliversDuplicates(t *testing.T) {
	// On a triangle each node hears the query from both neighbors.
	g := topology.NewGraph(make([]topology.Position, 3))
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	heard := map[topology.NodeID]int{}
	ch.SetReceiver(func(to, from topology.NodeID, msg any) { heard[to]++ })
	res := Disseminate(ch, 0, nil)
	for i := 0; i < 3; i++ {
		if heard[topology.NodeID(i)] != 2 {
			t.Fatalf("node %d heard %d copies, want 2", i, heard[topology.NodeID(i)])
		}
	}
	// N + 2*links = 3 + 6 = 9.
	if res.Cost.Total() != 9 {
		t.Fatalf("triangle flood cost %d, want 9", res.Cost.Total())
	}
}

func TestCostOnlyAgreesWithDisseminate(t *testing.T) {
	g, _, err := topology.BuildKaryTree(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	sim := Disseminate(ch, topology.Root, nil)
	var s Scratch
	dry := s.CostOnly(g, ch.Alive, topology.Root)
	if sim.Cost != dry {
		t.Fatalf("CostOnly %+v != Disseminate %+v", dry, sim.Cost)
	}
}

func TestCostOnlyDeadOrigin(t *testing.T) {
	g, _ := topology.PlaceLine(3, 1)
	dead := func(topology.NodeID) bool { return false }
	var s Scratch
	if c := s.CostOnly(g, dead, 0); c.Total() != 0 {
		t.Fatalf("cost %+v for dead origin", c)
	}
}
