package radio

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Class categorizes traffic so experiments can split costs by purpose.
type Class int

// Traffic classes.
const (
	ClassQuery    Class = iota // directed query dissemination (DirQ)
	ClassUpdate                // DirQ range-table Update Messages
	ClassEstimate              // hourly EHr estimate broadcasts from the root
	ClassFlood                 // flooding-baseline query traffic
	ClassControl               // MAC / tree maintenance traffic
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassQuery:
		return "query"
	case ClassUpdate:
		return "update"
	case ClassEstimate:
		return "estimate"
	case ClassFlood:
		return "flood"
	case ClassControl:
		return "control"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classes lists all traffic classes in order.
func Classes() []Class {
	return []Class{ClassQuery, ClassUpdate, ClassEstimate, ClassFlood, ClassControl}
}

// Cost is a tx/rx unit-count pair.
type Cost struct {
	Tx int64
	Rx int64
}

// Total returns Tx + Rx, the paper's combined message cost.
func (c Cost) Total() int64 { return c.Tx + c.Rx }

// Add returns the element-wise sum.
func (c Cost) Add(o Cost) Cost { return Cost{Tx: c.Tx + o.Tx, Rx: c.Rx + o.Rx} }

// Meter accumulates per-class and per-node message costs.
type Meter struct {
	byClass [numClasses]Cost
	nodeTx  []int64
	nodeRx  []int64
}

// NewMeter returns a meter for n nodes.
func NewMeter(n int) *Meter {
	return &Meter{nodeTx: make([]int64, n), nodeRx: make([]int64, n)}
}

func (m *Meter) countTx(id topology.NodeID, c Class) {
	m.byClass[c].Tx++
	m.nodeTx[id]++
}

func (m *Meter) countRx(id topology.NodeID, c Class) {
	m.byClass[c].Rx++
	m.nodeRx[id]++
}

// ByClass returns the accumulated cost of one traffic class.
func (m *Meter) ByClass(c Class) Cost { return m.byClass[c] }

// Total returns the cost summed over all classes.
func (m *Meter) Total() Cost {
	var t Cost
	for _, c := range m.byClass {
		t = t.Add(c)
	}
	return t
}

// NodeCost returns the (tx, rx) units consumed by a single node.
func (m *Meter) NodeCost(id topology.NodeID) Cost {
	return Cost{Tx: m.nodeTx[id], Rx: m.nodeRx[id]}
}

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.byClass = [numClasses]Cost{}
	for i := range m.nodeTx {
		m.nodeTx[i] = 0
		m.nodeRx[i] = 0
	}
}

// Snapshot returns a copy of the per-class costs.
func (m *Meter) Snapshot() map[Class]Cost {
	out := make(map[Class]Cost, numClasses)
	for _, c := range Classes() {
		out[c] = m.byClass[c]
	}
	return out
}

// Receiver handles a message delivered to node to from its neighbor from.
type Receiver func(to, from topology.NodeID, msg any)

// Channel delivers messages between nodes over the connectivity graph.
// Delivery is synchronous (the MAC layer above decides *when* to transmit;
// the channel only decides *who hears it* and accounts costs).
type Channel struct {
	graph       *topology.Graph
	meter       *Meter
	receiver    Receiver
	alive       []bool
	aliveVer    uint64 // power flips so far; see AliveVersion
	lossProb    float64
	lossRNG     *sim.RNG
	aliveChange func(id topology.NodeID, alive bool)
	tel         Telemetry
}

// Telemetry is the channel's instrument set. All fields may be nil (the
// instruments are nil-safe), and none of the counters feeds back into
// delivery or the loss RNG stream, so instrumented and bare channels
// deliver identically.
type Telemetry struct {
	// Tx counts physical transmissions (one per broadcast/multicast/
	// unicast send from a live node).
	Tx *telemetry.Counter
	// Rx counts successful receptions.
	Rx *telemetry.Counter
	// Drops counts receptions lost to the Bernoulli loss process.
	Drops *telemetry.Counter
}

// SetTelemetry binds (or, with the zero value, unbinds) the channel's
// instruments.
func (ch *Channel) SetTelemetry(t Telemetry) { ch.tel = t }

// NewChannel creates a loss-free channel over g.
func NewChannel(g *topology.Graph, meter *Meter) *Channel {
	ch := &Channel{
		graph: g,
		meter: meter,
		alive: make([]bool, g.Len()),
	}
	for i := range ch.alive {
		ch.alive[i] = true
	}
	return ch
}

// SetLoss enables i.i.d. Bernoulli packet loss with probability p on every
// individual reception, using the given RNG stream.
func (ch *Channel) SetLoss(p float64, rng *sim.RNG) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("radio: loss probability %v outside [0,1)", p))
	}
	ch.lossProb = p
	ch.lossRNG = rng
}

// SetReceiver installs the one handler every delivery on the channel goes
// through, whichever node it reaches. Without one, deliveries are
// metered but go nowhere.
func (ch *Channel) SetReceiver(r Receiver) { ch.receiver = r }

// SetAlive marks a node as powered (true) or dead (false). Dead nodes
// neither transmit nor receive.
func (ch *Channel) SetAlive(id topology.NodeID, alive bool) {
	if ch.alive[id] == alive {
		return
	}
	if ch.aliveChange != nil {
		// Notify before mutating: the MAC stores the liveness stamps of
		// the node's live pairs against the pre-change power state.
		ch.aliveChange(id, alive)
	}
	ch.alive[id] = alive
	ch.aliveVer++
}

// AliveVersion counts the power flips SetAlive has made. Anything computed
// from the liveness flags alone stays valid while it is unchanged.
func (ch *Channel) AliveVersion() uint64 { return ch.aliveVer }

// OnAliveChange registers a hook invoked whenever a node's power state is
// about to flip (the flag still holds the old value during the call). The
// MAC uses it to start and stop neighbor-death deadlines.
func (ch *Channel) OnAliveChange(fn func(id topology.NodeID, alive bool)) {
	ch.aliveChange = fn
}

// Alive reports whether the node is powered.
func (ch *Channel) Alive(id topology.NodeID) bool { return ch.alive[id] }

// Graph exposes the underlying connectivity graph.
func (ch *Channel) Graph() *topology.Graph { return ch.graph }

// Meter exposes the cost meter.
func (ch *Channel) Meter() *Meter { return ch.meter }

func (ch *Channel) dropped() bool {
	if ch.lossProb > 0 && ch.lossRNG != nil && ch.lossRNG.Bool(ch.lossProb) {
		ch.tel.Drops.Inc()
		return true
	}
	return false
}

// Broadcast transmits msg from the given node to every live radio neighbor.
// It costs the sender one tx unit regardless of neighbor count (a single MAC
// broadcast, as §5.1 specifies) and each hearing neighbor one rx unit.
// It returns the number of nodes that received the message.
func (ch *Channel) Broadcast(from topology.NodeID, class Class, msg any) int {
	if !ch.alive[from] {
		return 0
	}
	ch.meter.countTx(from, class)
	ch.tel.Tx.Inc()
	heard := 0
	r := ch.receiver
	for _, nb := range ch.graph.Neighbors(from) {
		if !ch.alive[nb] || ch.dropped() {
			continue
		}
		ch.meter.countRx(nb, class)
		ch.tel.Rx.Inc()
		heard++
		if r != nil {
			r(nb, from, msg)
		}
	}
	return heard
}

// Multicast transmits msg once and delivers it to the listed radio
// neighbors only (a MAC-level broadcast with an address list in the header,
// as LMAC data units carry). It costs the sender one tx unit and each
// addressed live neighbor one rx unit; unaddressed neighbors ignore the
// frame without cost. Returns the number of receivers.
//
// This matches the paper's §5.2 dissemination cost model: a forwarding node
// pays one transmission regardless of how many children it addresses, and
// each addressed child pays one reception.
func (ch *Channel) Multicast(from topology.NodeID, targets []topology.NodeID, class Class, msg any) int {
	if !ch.alive[from] {
		return 0
	}
	if len(targets) == 0 {
		return 0
	}
	for _, to := range targets {
		if !ch.graph.HasEdge(from, to) {
			panic(fmt.Sprintf("radio: multicast %d->%d without a radio link", from, to))
		}
	}
	ch.meter.countTx(from, class)
	ch.tel.Tx.Inc()
	heard := 0
	r := ch.receiver
	for _, to := range targets {
		if !ch.alive[to] || ch.dropped() {
			continue
		}
		ch.meter.countRx(to, class)
		ch.tel.Rx.Inc()
		heard++
		if r != nil {
			r(to, from, msg)
		}
	}
	return heard
}

// Unicast transmits msg from one node to a specific radio neighbor. It
// costs one tx and, on successful delivery, one rx unit. Reports whether
// the message was delivered.
func (ch *Channel) Unicast(from, to topology.NodeID, class Class, msg any) bool {
	if !ch.alive[from] {
		return false
	}
	if !ch.graph.HasEdge(from, to) {
		panic(fmt.Sprintf("radio: unicast %d->%d without a radio link", from, to))
	}
	ch.meter.countTx(from, class)
	ch.tel.Tx.Inc()
	if !ch.alive[to] || ch.dropped() {
		return false
	}
	ch.meter.countRx(to, class)
	ch.tel.Rx.Inc()
	if ch.receiver != nil {
		ch.receiver(to, from, msg)
	}
	return true
}
