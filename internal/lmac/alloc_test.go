package lmac

import (
	"testing"

	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
)

// allocNet builds a small random network with a started channel.
func allocNet(t *testing.T) (*MAC, *topology.Graph) {
	t.Helper()
	rng := sim.NewRNG(6)
	g, err := topology.PlaceRandom(topology.DefaultPlacement(), rng)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	m, err := New(engine, ch)
	if err != nil {
		t.Fatal(err)
	}
	return m, g
}

// TestQuietFrameAllocFree pins the steady-state TDMA frame at zero
// allocations: enqueue a unicast and a multicast, run the frame that
// flushes them, repeat. This is the per-epoch link-layer cost at every
// network size, so it must stay off the heap.
func TestQuietFrameAllocFree(t *testing.T) {
	m, g := allocNet(t)
	uniTo := g.Neighbors(1)[0]
	targets := g.Neighbors(3)

	// Warm up queues, spares and the multicast pool.
	for i := 0; i < 5; i++ {
		m.Unicast(1, uniTo, radio.ClassUpdate, nil)
		m.Multicast(3, targets, radio.ClassQuery, nil)
		m.RunFrame()
	}

	allocs := testing.AllocsPerRun(1000, func() {
		m.Unicast(1, uniTo, radio.ClassUpdate, nil)
		m.Multicast(3, targets, radio.ClassQuery, nil)
		m.RunFrame()
	})
	if allocs != 0 {
		t.Fatalf("steady-state frame allocates %.1f objects, want 0", allocs)
	}
}

// TestSilentFrameAllocFreeAndCheap pins the silent-frame fast path: with
// no queued traffic anywhere a frame is allocation-free (and, by
// construction, touches no per-node state at all).
func TestSilentFrameAllocFreeAndCheap(t *testing.T) {
	m, _ := allocNet(t)
	for i := 0; i < 3; i++ {
		m.RunFrame()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.RunFrame()
	})
	if allocs != 0 {
		t.Fatalf("silent frame allocates %.1f objects, want 0", allocs)
	}
}
