package radio

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func lineChannel(t *testing.T, n int) (*Channel, *Meter) {
	t.Helper()
	g, err := topology.PlaceLine(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(g.Len())
	return NewChannel(g, m), m
}

func TestBroadcastReachesNeighborsOnly(t *testing.T) {
	ch, _ := lineChannel(t, 4) // 0-1-2-3
	var got []topology.NodeID
	ch.SetReceiver(func(to, from topology.NodeID, msg any) {
		got = append(got, to)
	})
	n := ch.Broadcast(1, ClassFlood, "hello")
	if n != 2 {
		t.Fatalf("Broadcast returned %d receivers, want 2", n)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("received by %v, want [0 2]", got)
	}
}

func TestBroadcastCosts(t *testing.T) {
	ch, m := lineChannel(t, 4)
	ch.Broadcast(1, ClassFlood, nil)
	c := m.ByClass(ClassFlood)
	if c.Tx != 1 {
		t.Fatalf("broadcast tx cost %d, want 1 (single MAC broadcast)", c.Tx)
	}
	if c.Rx != 2 {
		t.Fatalf("broadcast rx cost %d, want 2", c.Rx)
	}
	if c.Total() != 3 {
		t.Fatalf("total %d, want 3", c.Total())
	}
}

func TestUnicastDeliveryAndCost(t *testing.T) {
	ch, m := lineChannel(t, 3)
	var from topology.NodeID = -1
	var payload any
	ch.SetReceiver(func(to, f topology.NodeID, msg any) {
		if to == 2 {
			from, payload = f, msg
		}
	})
	ok := ch.Unicast(1, 2, ClassUpdate, 42)
	if !ok {
		t.Fatal("unicast to live neighbor failed")
	}
	if from != 1 || payload != 42 {
		t.Fatalf("delivered from=%d payload=%v", from, payload)
	}
	c := m.ByClass(ClassUpdate)
	if c.Tx != 1 || c.Rx != 1 {
		t.Fatalf("unicast cost %+v, want 1 tx 1 rx", c)
	}
}

func TestUnicastWithoutLinkPanics(t *testing.T) {
	ch, _ := lineChannel(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("unicast without radio link did not panic")
		}
	}()
	ch.Unicast(0, 2, ClassUpdate, nil)
}

func TestDeadNodesDoNotTransmit(t *testing.T) {
	ch, m := lineChannel(t, 3)
	ch.SetAlive(1, false)
	if n := ch.Broadcast(1, ClassFlood, nil); n != 0 {
		t.Fatalf("dead node broadcast reached %d", n)
	}
	if ch.Unicast(1, 2, ClassUpdate, nil) {
		t.Fatal("dead node unicast succeeded")
	}
	if m.Total().Total() != 0 {
		t.Fatalf("dead node consumed %d cost units", m.Total().Total())
	}
}

func TestDeadNodesDoNotReceive(t *testing.T) {
	ch, m := lineChannel(t, 3)
	heard := false
	ch.SetReceiver(func(to, _ topology.NodeID, _ any) {
		if to == 2 {
			heard = true
		}
	})
	ch.SetAlive(2, false)
	if ch.Unicast(1, 2, ClassUpdate, nil) {
		t.Fatal("unicast to dead node reported delivered")
	}
	if heard {
		t.Fatal("dead node received a message")
	}
	// Transmission still costs the sender one unit.
	if c := m.ByClass(ClassUpdate); c.Tx != 1 || c.Rx != 0 {
		t.Fatalf("cost %+v, want tx=1 rx=0", c)
	}
	n := ch.Broadcast(1, ClassFlood, nil)
	if n != 1 {
		t.Fatalf("broadcast heard by %d, want only node 0", n)
	}
}

func TestAliveQuery(t *testing.T) {
	ch, _ := lineChannel(t, 2)
	if !ch.Alive(0) {
		t.Fatal("node not alive initially")
	}
	ch.SetAlive(0, false)
	if ch.Alive(0) {
		t.Fatal("SetAlive(false) ignored")
	}
	ch.SetAlive(0, true)
	if !ch.Alive(0) {
		t.Fatal("node not revived")
	}
}

// TestAliveVersionCountsFlips: the liveness version moves on every power
// flip and only then, so a cache keyed on it sees each change.
func TestAliveVersionCountsFlips(t *testing.T) {
	ch, _ := lineChannel(t, 3)
	calls := 0
	ch.OnAliveChange(func(topology.NodeID, bool) { calls++ })
	for k, step := range []struct {
		id    topology.NodeID
		alive bool
		ver   uint64
	}{
		{1, true, 0},  // already alive: no flip
		{1, false, 1}, // flip
		{1, false, 1}, // already dead
		{2, false, 2},
		{1, true, 3},
		{2, true, 4},
		{2, true, 4},
	} {
		ch.SetAlive(step.id, step.alive)
		if got := ch.AliveVersion(); got != step.ver {
			t.Fatalf("step %d: version %d, want %d", k, got, step.ver)
		}
		if uint64(calls) != step.ver {
			t.Fatalf("step %d: %d change notifications for %d flips", k, calls, step.ver)
		}
	}
}

func TestPerNodeCosts(t *testing.T) {
	ch, m := lineChannel(t, 3)
	ch.Unicast(0, 1, ClassQuery, nil)
	ch.Unicast(1, 2, ClassQuery, nil)
	if c := m.NodeCost(0); c.Tx != 1 || c.Rx != 0 {
		t.Fatalf("node 0 cost %+v", c)
	}
	if c := m.NodeCost(1); c.Tx != 1 || c.Rx != 1 {
		t.Fatalf("node 1 cost %+v", c)
	}
	if c := m.NodeCost(2); c.Tx != 0 || c.Rx != 1 {
		t.Fatalf("node 2 cost %+v", c)
	}
}

func TestMeterClassesSeparated(t *testing.T) {
	ch, m := lineChannel(t, 3)
	ch.Unicast(0, 1, ClassQuery, nil)
	ch.Unicast(0, 1, ClassUpdate, nil)
	ch.Broadcast(0, ClassEstimate, nil)
	if m.ByClass(ClassQuery).Total() != 2 {
		t.Fatal("query class wrong")
	}
	if m.ByClass(ClassUpdate).Total() != 2 {
		t.Fatal("update class wrong")
	}
	if m.ByClass(ClassEstimate).Tx != 1 {
		t.Fatal("estimate class wrong")
	}
	if m.ByClass(ClassFlood).Total() != 0 {
		t.Fatal("flood class should be empty")
	}
	snap := m.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d classes, want 5", len(snap))
	}
}

func TestMeterReset(t *testing.T) {
	ch, m := lineChannel(t, 3)
	ch.Broadcast(1, ClassFlood, nil)
	m.Reset()
	if m.Total().Total() != 0 {
		t.Fatal("Reset did not zero totals")
	}
	if m.NodeCost(1).Tx != 0 {
		t.Fatal("Reset did not zero per-node counters")
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{Tx: 2, Rx: 3}
	b := Cost{Tx: 10, Rx: 20}
	s := a.Add(b)
	if s.Tx != 12 || s.Rx != 23 || s.Total() != 35 {
		t.Fatalf("Add = %+v", s)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassQuery: "query", ClassUpdate: "update", ClassEstimate: "estimate",
		ClassFlood: "flood", ClassControl: "control",
	}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("Class %d String = %q, want %q", c, c.String(), want)
		}
	}
	if Class(99).String() == "" {
		t.Fatal("unknown class should still stringify")
	}
}

func TestLossyChannelDropsApproxFraction(t *testing.T) {
	g, err := topology.PlaceLine(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(2)
	ch := NewChannel(g, m)
	ch.SetLoss(0.25, sim.NewRNG(9))
	delivered := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if ch.Unicast(0, 1, ClassQuery, nil) {
			delivered++
		}
	}
	frac := float64(delivered) / n
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("delivery rate %v with 25%% loss, want ~0.75", frac)
	}
	// Tx always accounted, Rx only on delivery.
	c := m.ByClass(ClassQuery)
	if c.Tx != n || c.Rx != int64(delivered) {
		t.Fatalf("lossy cost %+v, delivered=%d", c, delivered)
	}
}

func TestSetLossValidation(t *testing.T) {
	ch, _ := lineChannel(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetLoss(1.5) did not panic")
		}
	}()
	ch.SetLoss(1.5, sim.NewRNG(1))
}

func TestMulticastCostAndDelivery(t *testing.T) {
	// Star: 0 connected to 1,2,3.
	g := topology.NewGraph(make([]topology.Position, 4))
	for i := 1; i < 4; i++ {
		if err := g.AddEdge(0, topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMeter(4)
	ch := NewChannel(g, m)
	heard := map[topology.NodeID]bool{}
	ch.SetReceiver(func(to, from topology.NodeID, msg any) {
		if to != 0 {
			heard[to] = true
		}
	})
	n := ch.Multicast(0, []topology.NodeID{1, 3}, ClassQuery, "q")
	if n != 2 {
		t.Fatalf("multicast receivers %d, want 2", n)
	}
	if !heard[1] || !heard[3] || heard[2] {
		t.Fatalf("heard = %v, want only addressed nodes 1 and 3", heard)
	}
	c := m.ByClass(ClassQuery)
	if c.Tx != 1 || c.Rx != 2 {
		t.Fatalf("multicast cost %+v, want tx=1 rx=2 (paper §5.2 model)", c)
	}
}

func TestMulticastEmptyTargetsFree(t *testing.T) {
	ch, m := lineChannel(t, 3)
	if n := ch.Multicast(1, nil, ClassQuery, nil); n != 0 {
		t.Fatalf("empty multicast delivered %d", n)
	}
	if m.Total().Total() != 0 {
		t.Fatal("empty multicast cost units")
	}
}

func TestMulticastDeadTargetCostsTxOnly(t *testing.T) {
	ch, m := lineChannel(t, 3)
	ch.SetAlive(2, false)
	n := ch.Multicast(1, []topology.NodeID{0, 2}, ClassQuery, nil)
	if n != 1 {
		t.Fatalf("receivers %d, want 1", n)
	}
	c := m.ByClass(ClassQuery)
	if c.Tx != 1 || c.Rx != 1 {
		t.Fatalf("cost %+v, want tx=1 rx=1", c)
	}
}

func TestMulticastNonNeighborPanics(t *testing.T) {
	ch, _ := lineChannel(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("multicast to non-neighbor did not panic")
		}
	}()
	ch.Multicast(0, []topology.NodeID{2}, ClassQuery, nil)
}
