package energy

import (
	"fmt"

	"repro/internal/radio"
	"repro/internal/topology"
)

// Model configures per-operation energy draw in abstract units.
type Model struct {
	// TxCost and RxCost are drawn per message transmitted / received
	// (the paper's §5 model uses 1 and 1).
	TxCost float64
	RxCost float64
	// SampleCost is drawn per physical sensor acquisition.
	SampleCost float64
	// IdleCostPerEpoch is the baseline drain per epoch (listening in the
	// TDMA frame, clock, leakage).
	IdleCostPerEpoch float64
	// Capacity is the initial battery charge per node.
	Capacity float64
}

// DefaultModel reflects typical sensor-node proportions: the radio
// dominates by orders of magnitude, reception costs about as much as
// transmission, sampling is far cheaper, and idle draw (TDMA duty-cycled
// listening) is smaller still.
func DefaultModel(capacity float64) Model {
	return Model{
		TxCost:           1,
		RxCost:           1,
		SampleCost:       0.02,
		IdleCostPerEpoch: 0.005,
		Capacity:         capacity,
	}
}

// Validate rejects non-physical settings.
func (m Model) Validate() error {
	if m.TxCost < 0 || m.RxCost < 0 || m.SampleCost < 0 || m.IdleCostPerEpoch < 0 {
		return fmt.Errorf("energy: negative cost in %+v", m)
	}
	if m.Capacity <= 0 {
		return fmt.Errorf("energy: capacity %v <= 0", m.Capacity)
	}
	return nil
}

// Bank tracks the battery of every node. The root is mains-powered (a
// server at the sink, §3) and never depletes.
type Bank struct {
	model    Model
	charge   []float64
	depleted []bool
	onDeath  func(topology.NodeID)
}

// NewBank creates fully charged batteries for n nodes.
func NewBank(n int, model Model) (*Bank, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	b := &Bank{model: model, charge: make([]float64, n), depleted: make([]bool, n)}
	for i := range b.charge {
		b.charge[i] = model.Capacity
	}
	return b, nil
}

// OnDeath registers the callback fired once when a node depletes.
func (b *Bank) OnDeath(fn func(topology.NodeID)) { b.onDeath = fn }

func (b *Bank) drain(id topology.NodeID, amount float64) {
	if id == topology.Root || b.depleted[id] {
		return
	}
	b.charge[id] -= amount
	if b.charge[id] <= 0 {
		b.charge[id] = 0
		b.depleted[id] = true
		if b.onDeath != nil {
			b.onDeath(id)
		}
	}
}

// DrainTx charges one transmission to a node.
func (b *Bank) DrainTx(id topology.NodeID) { b.drain(id, b.model.TxCost) }

// DrainRx charges one reception to a node.
func (b *Bank) DrainRx(id topology.NodeID) { b.drain(id, b.model.RxCost) }

// DrainSample charges one sensor acquisition to a node.
func (b *Bank) DrainSample(id topology.NodeID) { b.drain(id, b.model.SampleCost) }

// DrainIdleEpoch charges one epoch of idle draw to every live node.
func (b *Bank) DrainIdleEpoch() {
	for i := range b.charge {
		b.drain(topology.NodeID(i), b.model.IdleCostPerEpoch)
	}
}

// ApplyMeterDelta drains batteries according to the per-node tx/rx counts
// accumulated on a radio.Meter since the previous call. prev must be the
// slice returned by the previous invocation (nil for the first).
func (b *Bank) ApplyMeterDelta(m *radio.Meter, prev []radio.Cost) []radio.Cost {
	cur := make([]radio.Cost, len(b.charge))
	for i := range cur {
		id := topology.NodeID(i)
		cur[i] = m.NodeCost(id)
		var last radio.Cost
		if prev != nil {
			last = prev[i]
		}
		for t := last.Tx; t < cur[i].Tx; t++ {
			b.DrainTx(id)
		}
		for r := last.Rx; r < cur[i].Rx; r++ {
			b.DrainRx(id)
		}
	}
	return cur
}

// LiveCount returns how many nodes still have charge (root included).
func (b *Bank) LiveCount() int {
	n := 0
	for i := range b.depleted {
		if !b.depleted[i] {
			n++
		}
	}
	return n
}
