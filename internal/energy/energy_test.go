package energy

import (
	"testing"

	"repro/internal/radio"
	"repro/internal/topology"
)

func newBank(t *testing.T, n int, capacity float64) *Bank {
	t.Helper()
	b, err := NewBank(n, DefaultModel(capacity))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestModelValidate(t *testing.T) {
	if err := DefaultModel(100).Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := []Model{
		{TxCost: -1, Capacity: 10},
		{Capacity: 0},
		{RxCost: 1, Capacity: -5},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Fatalf("bad model %d accepted", i)
		}
	}
	if _, err := NewBank(3, Model{}); err == nil {
		t.Fatal("zero model accepted")
	}
}

func TestDrainAndDeath(t *testing.T) {
	b := newBank(t, 3, 2.5)
	var deaths []topology.NodeID
	b.OnDeath(func(id topology.NodeID) { deaths = append(deaths, id) })

	b.DrainTx(1) // 1.5 left
	b.DrainRx(1) // 0.5 left
	if b.depleted[1] {
		t.Fatal("node died early")
	}
	b.DrainTx(1) // depleted
	if !b.depleted[1] {
		t.Fatal("node did not die at depletion")
	}
	if b.charge[1] != 0 {
		t.Fatalf("charge clamped to %v, want 0", b.charge[1])
	}
	if len(deaths) != 1 || deaths[0] != 1 {
		t.Fatalf("death callbacks %v", deaths)
	}
	// Further drains on a dead node are no-ops, no double callback.
	b.DrainTx(1)
	if len(deaths) != 1 {
		t.Fatal("double death callback")
	}
}

func TestRootIsMainsPowered(t *testing.T) {
	b := newBank(t, 2, 1)
	for i := 0; i < 100; i++ {
		b.DrainTx(topology.Root)
		b.DrainRx(topology.Root)
	}
	if b.depleted[topology.Root] {
		t.Fatal("root depleted")
	}
	if b.charge[topology.Root] != 1 {
		t.Fatalf("root charge %v changed", b.charge[topology.Root])
	}
}

func TestIdleDrain(t *testing.T) {
	m := DefaultModel(1)
	m.IdleCostPerEpoch = 0.5
	b, err := NewBank(3, m)
	if err != nil {
		t.Fatal(err)
	}
	b.DrainIdleEpoch()
	if b.charge[1] != 0.5 || b.charge[2] != 0.5 {
		t.Fatalf("idle drain wrong: %v %v", b.charge[1], b.charge[2])
	}
	b.DrainIdleEpoch()
	if !b.depleted[1] || !b.depleted[2] {
		t.Fatal("idle drain did not deplete")
	}
	if b.LiveCount() != 1 { // only the root
		t.Fatalf("LiveCount = %d", b.LiveCount())
	}
}

func TestSampleDrain(t *testing.T) {
	m := DefaultModel(1)
	m.SampleCost = 0.2
	b, err := NewBank(2, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		b.DrainSample(1) // 0.2 each
	}
	if got := b.charge[1]; got < 0.19 || got > 0.21 {
		t.Fatalf("charge after 4 samples %v, want ~0.2", got)
	}
}

func TestApplyMeterDelta(t *testing.T) {
	g, err := topology.PlaceLine(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	meter := radio.NewMeter(3)
	ch := radio.NewChannel(g, meter)
	b := newBank(t, 3, 100)

	ch.Unicast(1, 2, radio.ClassQuery, nil)
	prev := b.ApplyMeterDelta(meter, nil)
	if b.charge[1] != 99 { // one tx
		t.Fatalf("node 1 charge %v, want 99", b.charge[1])
	}
	if b.charge[2] != 99 { // one rx
		t.Fatalf("node 2 charge %v, want 99", b.charge[2])
	}

	// Second delta only drains the new traffic.
	ch.Unicast(2, 1, radio.ClassQuery, nil)
	b.ApplyMeterDelta(meter, prev)
	if b.charge[1] != 98 || b.charge[2] != 98 {
		t.Fatalf("delta application wrong: %v %v", b.charge[1], b.charge[2])
	}
}
