package lmac

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
)

func newTestNet(t *testing.T, g *topology.Graph) (*sim.Engine, *radio.Channel, *MAC) {
	t.Helper()
	engine := sim.NewEngine()
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	m, err := New(engine, ch)
	if err != nil {
		t.Fatal(err)
	}
	return engine, ch, m
}

func lineNet(t *testing.T, n int) (*sim.Engine, *radio.Channel, *MAC) {
	t.Helper()
	g, err := topology.PlaceLine(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return newTestNet(t, g)
}

func TestAssignSlotsLine(t *testing.T) {
	g, err := topology.PlaceLine(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := AssignSlots(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifySlots(g, slots); err != nil {
		t.Fatal(err)
	}
	// On a line, 3 slots suffice (2-hop coloring of a path).
	max := 0
	for _, s := range slots {
		if s > max {
			max = s
		}
	}
	if max > 2 {
		t.Fatalf("line needed %d slots, want <= 3", max+1)
	}
}

func TestAssignSlotsDisconnected(t *testing.T) {
	g := topology.NewGraph(make([]topology.Position, 3))
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := AssignSlots(g); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestVerifySlotsDetectsClash(t *testing.T) {
	g, _ := topology.PlaceLine(3, 1)
	if err := verifySlots(g, []int{0, 1, 0}); err == nil {
		t.Fatal("2-hop clash (0 and 2 share slot) not detected")
	}
	if err := verifySlots(g, []int{0, 0, 1}); err == nil {
		t.Fatal("1-hop clash not detected")
	}
	if err := verifySlots(g, []int{0, 1, 2}); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
}

func TestUnicastDeliveredInFrame(t *testing.T) {
	_, ch, m := lineNet(t, 3)
	var got any
	var from topology.NodeID = -1
	ch.SetReceiver(func(to, f topology.NodeID, msg any) {
		if to == 1 {
			from, got = f, msg
		}
	})
	m.Unicast(0, 1, radio.ClassUpdate, "up")
	m.RunFrame()
	if from != 0 || got != "up" {
		t.Fatalf("delivered from=%d msg=%v", from, got)
	}
	if m.QueueLen(0) != 0 {
		t.Fatal("queue not drained")
	}
}

func TestBroadcastDeliveredToNeighbors(t *testing.T) {
	_, ch, m := lineNet(t, 3)
	heard := map[topology.NodeID]bool{}
	ch.SetReceiver(func(to, f topology.NodeID, msg any) { heard[to] = true })
	m.Broadcast(1, radio.ClassEstimate, "eh")
	m.RunFrame()
	if !heard[0] || !heard[2] || heard[1] {
		t.Fatalf("heard = %v, want 0 and 2 only", heard)
	}
}

func TestForwardingWithinOrAcrossFrames(t *testing.T) {
	// 0 -> 1 -> 2 relay: node 1 re-enqueues on receive. Whether the relay
	// happens in the same frame depends on slot order; in all cases it must
	// arrive within two frames.
	_, ch, m := lineNet(t, 3)
	arrived := -1
	ch.SetReceiver(func(to, f topology.NodeID, msg any) {
		switch to {
		case 1:
			m.Unicast(1, 2, radio.ClassQuery, msg)
		case 2:
			arrived = int(m.Frame())
		}
	})
	m.Unicast(0, 1, radio.ClassQuery, "q")
	m.RunFrame()
	m.RunFrame()
	if arrived < 0 {
		t.Fatal("relayed message never arrived")
	}
	if arrived > 1 {
		t.Fatalf("relay took until frame %d, want <= 1", arrived)
	}
}

func TestStartSchedulesFrames(t *testing.T) {
	engine, _, m := lineNet(t, 3)
	m.Start()
	engine.RunUntil(9)
	if m.Frame() != 10 {
		t.Fatalf("frames after 10 ticks = %d, want 10", m.Frame())
	}
}

func TestStartTwicePanics(t *testing.T) {
	_, _, m := lineNet(t, 2)
	m.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	m.Start()
}

func TestDeadNeighborDetection(t *testing.T) {
	_, _, m := lineNet(t, 3)
	var deaths []struct{ at, dead topology.NodeID }
	m.OnNeighborDead(func(at, dead topology.NodeID) {
		deaths = append(deaths, struct{ at, dead topology.NodeID }{at, dead})
	})
	for i := 0; i < 3; i++ {
		m.RunFrame()
	}
	if len(deaths) != 0 {
		t.Fatalf("spurious deaths: %v", deaths)
	}
	m.Kill(1)
	for i := 0; i < int(DefaultDeadThreshold)+1; i++ {
		m.RunFrame()
	}
	// Both 0 and 2 should have detected node 1's death exactly once.
	seen := map[topology.NodeID]int{}
	for _, d := range deaths {
		if d.dead != 1 {
			t.Fatalf("unexpected dead node %d", d.dead)
		}
		seen[d.at]++
	}
	if seen[0] != 1 || seen[2] != 1 {
		t.Fatalf("death notifications %v, want one each at nodes 0 and 2", seen)
	}
}

func TestDeadNodeStopsTraffic(t *testing.T) {
	_, ch, m := lineNet(t, 3)
	m.Unicast(1, 2, radio.ClassQuery, "q")
	m.Kill(1)
	got := false
	ch.SetReceiver(func(to, _ topology.NodeID, _ any) {
		if to == 2 {
			got = true
		}
	})
	m.RunFrame()
	if got {
		t.Fatal("dead node still transmitted its queue")
	}
	if m.QueueLen(1) != 0 {
		t.Fatal("dead node retains queued messages")
	}
}

func TestKillRootPanics(t *testing.T) {
	_, _, m := lineNet(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("killing root did not panic")
		}
	}()
	m.Kill(topology.Root)
}

// TestJoinPrimesNeighborTables deploys a node that was dead at
// construction: its table lists its live neighbor at once, the neighbor's
// table lists it from the first frame it beacons in, and its traffic is
// delivered.
func TestJoinPrimesNeighborTables(t *testing.T) {
	g, err := topology.PlaceLine(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	ch.SetAlive(2, false) // node 2 not yet deployed
	m, err := New(engine, ch)
	if err != nil {
		t.Fatal(err)
	}
	m.RunFrame()
	if nbs := m.neighbors(1); len(nbs) != 1 || nbs[0] != 0 {
		t.Fatalf("node 1 neighbors before the join = %v, want [0]", nbs)
	}
	m.Join(2)
	if nbs := m.neighbors(2); len(nbs) != 1 || nbs[0] != 1 {
		t.Fatalf("joined node neighbors = %v, want [1]", nbs)
	}
	var got any
	ch.SetReceiver(func(to, _ topology.NodeID, msg any) {
		if to == 1 {
			got = msg
		}
	})
	m.Unicast(2, 1, radio.ClassUpdate, "hello")
	m.RunFrame()
	if nbs := m.neighbors(1); len(nbs) != 2 || nbs[1] != 2 {
		t.Fatalf("node 1 neighbors after the join = %v, want [0 2]", nbs)
	}
	if got != "hello" {
		t.Fatalf("joined node's unicast delivered %v, want hello", got)
	}
}

// TestRejoinAfterDeathDetectedAgain kills a node, lets its neighbor
// declare the death, rejoins it and kills it again: the second death is
// declared too, deadThreshold frames after the second kill.
func TestRejoinAfterDeathDetectedAgain(t *testing.T) {
	_, _, m := lineNet(t, 2)
	var deathFrames []int64
	m.OnNeighborDead(func(at, dead topology.NodeID) {
		if at == 0 && dead == 1 {
			deathFrames = append(deathFrames, m.Frame())
		}
	})
	m.Kill(1)
	for i := 0; i < 6; i++ {
		m.RunFrame()
	}
	if len(deathFrames) != 1 {
		t.Fatalf("deaths = %v, want 1", deathFrames)
	}
	m.Join(1)
	m.RunFrame()
	if nbs := m.neighbors(0); len(nbs) != 1 || nbs[0] != 1 {
		t.Fatalf("node 0 neighbors after the rejoin = %v, want [1]", nbs)
	}
	m.Kill(1) // after frame 6, which node 0 heard node 1 in
	for i := 0; i < 6; i++ {
		m.RunFrame()
	}
	if want := []int64{3, 6 + DefaultDeadThreshold}; len(deathFrames) != 2 || deathFrames[0] != want[0] || deathFrames[1] != want[1] {
		t.Fatalf("deaths in frames %v, want %v", deathFrames, want)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g, err := topology.PlaceGrid(3, 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	_, _, m := newTestNet(t, g)
	nbs := m.neighbors(4) // grid centre
	for i := 1; i < len(nbs); i++ {
		if nbs[i-1] >= nbs[i] {
			t.Fatalf("neighbors not sorted: %v", nbs)
		}
	}
	if len(nbs) == 0 {
		t.Fatal("centre node has no neighbors")
	}
}

func TestSetDeadThreshold(t *testing.T) {
	_, _, m := lineNet(t, 2)
	m.SetDeadThreshold(1)
	deaths := 0
	m.OnNeighborDead(func(at, dead topology.NodeID) { deaths++ })
	m.Kill(1)
	m.RunFrame()
	if deaths == 0 {
		t.Fatal("threshold 1 did not detect death after one silent frame")
	}
}

func TestSetDeadThresholdValidation(t *testing.T) {
	_, _, m := lineNet(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("threshold 0 accepted")
		}
	}()
	m.SetDeadThreshold(0)
}

func TestTDMASlotOrderGovernsForwardingLatency(t *testing.T) {
	// Node 0 owns slot 0, node 1 owns slot 1. A message relayed towards a
	// LATER slot goes out in the same frame; one relayed towards an EARLIER
	// slot must wait for the next frame.
	_, ch, m := lineNet(t, 2)
	if m.Slot(0) != 0 || m.Slot(1) != 1 {
		t.Fatalf("unexpected slots %d,%d", m.Slot(0), m.Slot(1))
	}

	// Direction 1: 0 -> 1 -> 0. The bounce is enqueued during slot 0 (node
	// 1 hears it then), and node 1's slot 1 is still ahead, so it arrives
	// back at node 0 within frame 0.
	var backFrame int64 = -1
	ch.SetReceiver(func(to, f topology.NodeID, msg any) {
		switch to {
		case 1:
			m.Unicast(1, 0, radio.ClassQuery, msg)
		case 0:
			backFrame = m.Frame()
		}
	})
	m.Unicast(0, 1, radio.ClassQuery, "ping")
	m.RunFrame()
	if backFrame != 0 {
		t.Fatalf("later-slot relay arrived in frame %d, want 0", backFrame)
	}

	// Direction 2: 1 -> 0 -> 1. Node 0 hears during slot 1 but its own slot
	// 0 has already passed this frame, so the bounce waits for frame 2.
	var fwdFrame int64 = -1
	ch.SetReceiver(func(to, f topology.NodeID, msg any) {
		switch to {
		case 0:
			m.Unicast(0, 1, radio.ClassQuery, msg)
		case 1:
			fwdFrame = m.Frame()
		}
	})
	m.Unicast(1, 0, radio.ClassQuery, "pong")
	m.RunFrame() // frame 1: 1 transmits in slot 1; 0 enqueues too late
	if fwdFrame != -1 {
		t.Fatal("earlier-slot relay jumped the frame boundary")
	}
	m.RunFrame() // frame 2: node 0's slot comes first, bounce delivered
	if fwdFrame != 2 {
		t.Fatalf("earlier-slot relay arrived in frame %d, want 2", fwdFrame)
	}
}

// Property: slot assignment over random connected graphs is always two-hop
// conflict-free and uses a bounded number of slots.
func TestPropertySlotAssignment(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		g, err := topology.PlaceRandom(topology.PlacementConfig{
			N: 25, Width: 60, Height: 60, RadioRange: 25,
		}, rng)
		if err != nil {
			return false
		}
		slots, err := AssignSlots(g)
		if err != nil {
			return false
		}
		return verifySlots(g, slots) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMACMulticast(t *testing.T) {
	g, err := topology.PlaceGrid(3, 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	_, ch, m := newTestNet(t, g)
	centre := topology.NodeID(4)
	targets := []topology.NodeID{1, 7}
	heard := map[topology.NodeID]bool{}
	ch.SetReceiver(func(to, from topology.NodeID, msg any) { heard[to] = true })
	m.Multicast(centre, targets, radio.ClassQuery, "q")
	m.RunFrame()
	if !heard[1] || !heard[7] {
		t.Fatalf("addressed nodes missed the multicast: %v", heard)
	}
	for nb := range heard {
		if nb != 1 && nb != 7 {
			t.Fatalf("unaddressed node %d received the multicast", nb)
		}
	}
	c := ch.Meter().ByClass(radio.ClassQuery)
	if c.Tx != 1 || c.Rx != 2 {
		t.Fatalf("multicast cost %+v, want tx=1 rx=2", c)
	}
}

func TestMACMulticastEmptyIgnored(t *testing.T) {
	_, _, m := lineNet(t, 3)
	m.Multicast(1, nil, radio.ClassQuery, nil)
	if m.QueueLen(1) != 0 {
		t.Fatal("empty multicast queued")
	}
}

func TestMACMulticastCopiesTargets(t *testing.T) {
	_, ch, m := lineNet(t, 3)
	targets := []topology.NodeID{0}
	m.Multicast(1, targets, radio.ClassQuery, nil)
	targets[0] = 2 // caller mutates after queueing
	got := false
	ch.SetReceiver(func(to, _ topology.NodeID, _ any) {
		if to == 0 {
			got = true
		}
	})
	m.RunFrame()
	if !got {
		t.Fatal("queued multicast target list aliased caller slice")
	}
}

// verifySlots checks the two-hop uniqueness property of a slot assignment.
func verifySlots(g *topology.Graph, slots []int) error {
	for id := 0; id < g.Len(); id++ {
		for _, nb := range g.Neighbors(topology.NodeID(id)) {
			if slots[id] == slots[nb] {
				return fmt.Errorf("lmac: 1-hop slot clash between %d and %d (slot %d)", id, nb, slots[id])
			}
			for _, nb2 := range g.Neighbors(nb) {
				if int(nb2) != id && slots[id] == slots[nb2] {
					return fmt.Errorf("lmac: 2-hop slot clash between %d and %d (slot %d)", id, nb2, slots[id])
				}
			}
		}
	}
	return nil
}

// neighbors returns the sorted neighbor view of a node's MAC table.
func (m *MAC) neighbors(id topology.NodeID) []topology.NodeID {
	off := m.adjOff[id]
	row := m.adjFlat[off:m.adjOff[id+1]]
	out := make([]topology.NodeID, 0, len(row))
	for k, nb := range row { // row is sorted, so out is too
		if m.heard(off+int32(k), id, nb) != unheard {
			out = append(out, nb)
		}
	}
	return out
}
