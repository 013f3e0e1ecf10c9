package radio

import (
	"testing"

	"repro/internal/topology"
)

// TestBroadcastAllocFree pins the delivery hot path's allocation ceiling:
// a broadcast through an installed receiver must not allocate.
func TestBroadcastAllocFree(t *testing.T) {
	g, _, err := topology.BuildKaryTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(g, NewMeter(g.Len()))
	sink := 0
	ch.SetReceiver(func(to, from topology.NodeID, msg any) { sink++ })

	allocs := testing.AllocsPerRun(1000, func() {
		ch.Broadcast(topology.Root, ClassFlood, nil)
	})
	if allocs != 0 {
		t.Fatalf("Broadcast allocates %.1f objects, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("no deliveries happened")
	}
}

// TestUnicastMulticastAllocFree extends the ceiling to the other two
// delivery primitives.
func TestUnicastMulticastAllocFree(t *testing.T) {
	g, _, err := topology.BuildKaryTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(g, NewMeter(g.Len()))
	ch.SetReceiver(func(to, from topology.NodeID, msg any) {})
	targets := g.Neighbors(topology.Root)

	allocs := testing.AllocsPerRun(1000, func() {
		ch.Unicast(topology.Root, targets[0], ClassUpdate, nil)
		ch.Multicast(topology.Root, targets, ClassQuery, nil)
	})
	if allocs != 0 {
		t.Fatalf("Unicast+Multicast allocate %.1f objects, want 0", allocs)
	}
}
