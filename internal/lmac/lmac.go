package lmac

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// PrioApp and PrioMAC order same-epoch engine tickers: application logic
// (sensor acquisition, query injection) runs before the MAC frame, which
// runs before end-of-epoch bookkeeping.
const (
	PrioApp     = 0
	PrioMAC     = 10
	PrioMetrics = 20
)

// DefaultDeadThreshold is the number of consecutive missed frames after
// which a neighbor is declared dead.
const DefaultDeadThreshold = 4

// queuedMsg is one pending data transmission.
type queuedMsg struct {
	to        topology.NodeID // -1 for broadcast/multicast
	targets   []topology.NodeID
	class     radio.Class
	msg       any
	broadcast bool
}

// nodeState is the per-node MAC state. Neighbor liveness lives in the
// MAC's flat edge-parallel lastHeard array, not here.
type nodeState struct {
	slot  int
	queue []queuedMsg
	// spare is the queue buffer flushed last frame, kept for reuse: queue
	// and spare ping-pong so steady-state traffic never reallocates.
	spare []queuedMsg
}

// unheard is the lastHeard sentinel for "this neighbor is not in the
// node's MAC table".
const unheard = int64(-1) << 62

// deathWatch is a live node's table entry for a neighbor that powered
// off: the entry at edge whose holder is at. It stays on the MAC's
// pending list until the death is declared or can no longer be.
type deathWatch struct {
	edge int32
	at   topology.NodeID
}

// MAC is the link layer for the whole network. A single object manages all
// nodes' MAC state; per-node behaviour remains strictly local (each node
// only reads its own queue and neighbor table).
type MAC struct {
	engine  *sim.Engine
	channel *radio.Channel
	nodes   []nodeState
	slots   int
	frame   int64
	started bool

	deadThreshold int64

	// order lists every node sorted by (slot, id). Slots are assigned once
	// at construction, so the frame iteration order is static.
	order []topology.NodeID
	// orderPos inverts order: the frame position owned by each node.
	orderPos []int32
	// targetFree pools multicast address lists: Multicast copies the
	// caller's targets into a pooled slice, and the flush returns it after
	// transmission.
	targetFree [][]topology.NodeID

	// Flat neighbor-table index. The channel graph is static for the
	// MAC's lifetime, so per-(node, neighbor) liveness stamps live in one
	// edge-parallel array instead of a map per node: entry adjOff[i]+k is
	// node i's stamp for its k-th (sorted) radio neighbor adjFlat[...],
	// and revEdge maps each directed edge to its reverse.
	adjOff  []int32
	adjFlat []topology.NodeID
	revEdge []int32
	// lastHeard holds each entry's stamp as of the last power flip that
	// touched its pair. Every live node beacons in every frame, so a pair
	// that has been live through a frame heard each other in the previous
	// one; heard derives that stamp from lifeStart, and onAliveChange
	// stores it here just before a flip ends or restarts the pair.
	lastHeard []int64
	// lifeStart is the frame counter at each node's last power-on.
	lifeStart []int64

	// dirty holds one bit per frame position, set while that node has
	// traffic queued for its slot; dirtyN counts the set bits. A frame
	// scans the bits upward, so a bit set behind the cursor waits for the
	// next frame, and a frame with no bit set is silent.
	dirty  []uint64
	dirtyN int
	// pending lists the table entries of powered-off neighbors whose
	// death is yet to be declared.
	pending []deathWatch

	onDead func(at topology.NodeID, dead topology.NodeID)

	tel Telemetry
}

// Telemetry is the MAC's instrument set. All fields may be nil (the
// instruments are nil-safe); nothing here feeds back into scheduling, so
// an instrumented MAC runs the identical frame sequence.
type Telemetry struct {
	// FramesQuiet counts frames that visited nodes with queued traffic.
	FramesQuiet *telemetry.Counter
	// FramesSilent counts frames with no queued traffic at all.
	FramesSilent *telemetry.Counter
	// MessagesFlushed counts queued data messages handed to the channel.
	MessagesFlushed *telemetry.Counter
}

// SetTelemetry binds (or, with the zero value, unbinds) the MAC's
// instruments.
func (m *MAC) SetTelemetry(t Telemetry) { m.tel = t }

// New builds a MAC over the channel's graph and assigns the TDMA schedule.
// All nodes that are alive on the channel are registered immediately.
func New(engine *sim.Engine, channel *radio.Channel) (*MAC, error) {
	g := channel.Graph()
	m := &MAC{
		engine:        engine,
		channel:       channel,
		nodes:         make([]nodeState, g.Len()),
		deadThreshold: DefaultDeadThreshold,
	}
	slots, err := AssignSlots(g)
	if err != nil {
		return nil, err
	}
	maxSlot := 0
	for i := range m.nodes {
		m.nodes[i] = nodeState{slot: slots[i]}
		if slots[i] > maxSlot {
			maxSlot = slots[i]
		}
	}
	m.slots = maxSlot + 1
	// Flat neighbor-table index over the (static) channel graph.
	n := g.Len()
	m.adjOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		m.adjOff[i+1] = m.adjOff[i] + int32(g.Degree(topology.NodeID(i)))
	}
	m.adjFlat = make([]topology.NodeID, m.adjOff[n])
	m.revEdge = make([]int32, m.adjOff[n])
	m.lastHeard = make([]int64, m.adjOff[n])
	for i := 0; i < n; i++ {
		copy(m.adjFlat[m.adjOff[i]:m.adjOff[i+1]], g.Neighbors(topology.NodeID(i)))
	}
	for i := 0; i < n; i++ {
		row := m.adjFlat[m.adjOff[i]:m.adjOff[i+1]]
		for k, nb := range row {
			nbRow := m.adjFlat[m.adjOff[nb]:m.adjOff[nb+1]]
			p := sort.Search(len(nbRow), func(j int) bool { return nbRow[j] >= topology.NodeID(i) })
			m.revEdge[int(m.adjOff[i])+k] = m.adjOff[nb] + int32(p)
		}
	}
	for e := range m.lastHeard {
		m.lastHeard[e] = unheard
	}
	m.order = make([]topology.NodeID, len(m.nodes))
	for i := range m.order {
		m.order[i] = topology.NodeID(i)
	}
	sort.Slice(m.order, func(i, j int) bool {
		a, b := m.order[i], m.order[j]
		if sa, sb := m.nodes[a].slot, m.nodes[b].slot; sa != sb {
			return sa < sb
		}
		return a < b
	})
	m.orderPos = make([]int32, len(m.nodes))
	for pos, id := range m.order {
		m.orderPos[id] = int32(pos)
	}
	m.lifeStart = make([]int64, n)
	m.dirty = make([]uint64, (n+63)/64)
	for i := range m.nodes {
		if channel.Alive(topology.NodeID(i)) {
			m.register(topology.NodeID(i))
		}
	}
	channel.OnAliveChange(m.onAliveChange)
	return m, nil
}

// heard returns the last frame in which node at heard the neighbor nb
// whose entry in at's table is edge e (unheard if nb is not in it).
func (m *MAC) heard(e int32, at, nb topology.NodeID) int64 {
	if m.channel.Alive(at) && m.channel.Alive(nb) && m.frame > max(m.lifeStart[at], m.lifeStart[nb]) {
		return m.frame - 1
	}
	return m.lastHeard[e]
}

// onAliveChange is wired to the channel and runs just before a node's
// power flag flips, always between frames. A live node's neighbors store
// the stamp they hold for it, since its beacons are about to stop or
// restart; a kill also puts their entries on the pending list, where
// RunFrame declares the death once the entry is deadThreshold frames old.
// A power-on re-primes the node's own table.
func (m *MAC) onAliveChange(id topology.NodeID, alive bool) {
	off, end := m.adjOff[id], m.adjOff[id+1]
	if m.channel.Alive(id) {
		for e := off; e < end; e++ {
			nb := m.adjFlat[e]
			if !m.channel.Alive(nb) {
				continue
			}
			w := m.revEdge[e]
			m.lastHeard[w] = m.heard(w, nb, id)
			if !alive {
				m.pending = append(m.pending, deathWatch{edge: w, at: nb})
			}
		}
	}
	if alive {
		m.register(id)
	}
}

// markDirty records that a node has traffic queued for its next slot.
func (m *MAC) markDirty(id topology.NodeID) {
	pos := m.orderPos[id]
	w, bit := pos>>6, uint64(1)<<(pos&63)
	if m.dirty[w]&bit == 0 {
		m.dirty[w] |= bit
		m.dirtyN++
	}
}

// getTargets returns a pooled slice holding a copy of targets.
func (m *MAC) getTargets(targets []topology.NodeID) []topology.NodeID {
	var buf []topology.NodeID
	if n := len(m.targetFree); n > 0 {
		buf = m.targetFree[n-1][:0]
		m.targetFree = m.targetFree[:n-1]
	}
	return append(buf, targets...)
}

// putTargets returns a slice obtained from getTargets to the pool.
func (m *MAC) putTargets(buf []topology.NodeID) {
	m.targetFree = append(m.targetFree, buf)
}

// register starts a node's MAC life and primes its neighbor table with
// its currently-live radio neighbors (LMAC learns these during its join
// phase; we start post-convergence, as the paper's simulations do).
func (m *MAC) register(id topology.NodeID) {
	m.lifeStart[id] = m.frame
	off := m.adjOff[id]
	row := m.adjFlat[off:m.adjOff[id+1]]
	for k, nb := range row {
		if m.channel.Alive(nb) {
			// Primed as "heard just before this frame": a neighbor that
			// stays silent in the current frame has missed one frame.
			m.lastHeard[int(off)+k] = m.frame - 1
		} else {
			m.lastHeard[int(off)+k] = unheard
		}
	}
	// Traffic queued while the node was down goes out in its first slot.
	if len(m.nodes[id].queue) > 0 {
		m.markDirty(id)
	}
}

// Slots returns the frame length in slots.
func (m *MAC) Slots() int { return m.slots }

// Slot returns the slot owned by a node.
func (m *MAC) Slot(id topology.NodeID) int { return m.nodes[id].slot }

// Frame returns the number of completed frames.
func (m *MAC) Frame() int64 { return m.frame }

// SetDeadThreshold overrides the missed-frame count before a neighbor is
// declared dead.
func (m *MAC) SetDeadThreshold(frames int64) {
	if frames < 1 {
		panic("lmac: dead threshold must be >= 1")
	}
	m.deadThreshold = frames
}

// OnNeighborDead registers the cross-layer callback fired at a node when one
// of its neighbors is detected dead (§4.2: "When LMAC detects that a
// neighboring node has died, it sends a notification to DirQ").
func (m *MAC) OnNeighborDead(fn func(at, dead topology.NodeID)) { m.onDead = fn }

// Unicast queues a data message for transmission to a radio neighbor in the
// sender's next slot.
func (m *MAC) Unicast(from, to topology.NodeID, class radio.Class, msg any) {
	st := &m.nodes[from]
	st.queue = append(st.queue, queuedMsg{to: to, class: class, msg: msg})
	m.markDirty(from)
}

// Broadcast queues a data message for transmission to all radio neighbors
// in the sender's next slot.
func (m *MAC) Broadcast(from topology.NodeID, class radio.Class, msg any) {
	st := &m.nodes[from]
	st.queue = append(st.queue, queuedMsg{to: -1, broadcast: true, class: class, msg: msg})
	m.markDirty(from)
}

// Multicast queues a data message addressed to a specific set of radio
// neighbors; it is sent as one transmission in the sender's next slot.
func (m *MAC) Multicast(from topology.NodeID, targets []topology.NodeID, class radio.Class, msg any) {
	if len(targets) == 0 {
		return
	}
	st := &m.nodes[from]
	st.queue = append(st.queue, queuedMsg{
		to: -1, targets: m.getTargets(targets),
		class: class, msg: msg,
	})
	m.markDirty(from)
}

// QueueLen reports the number of messages pending at a node.
func (m *MAC) QueueLen(id topology.NodeID) int { return len(m.nodes[id].queue) }

// Start registers frame processing as an engine ticker firing at every
// tick from the engine's current time on. Call once.
func (m *MAC) Start() {
	if m.started {
		panic("lmac: Start called twice")
	}
	m.started = true
	m.engine.AddTicker(PrioMAC, m.RunFrame)
}

// RunFrame executes one TDMA frame: every live node with queued traffic
// flushes it in its slot, in (slot, id) order, and then every neighbor
// death that has gone deadThreshold frames unheard is declared. Beacons
// carry no payload, so a node without traffic is not visited.
func (m *MAC) RunFrame() {
	if m.dirtyN > 0 {
		m.tel.FramesQuiet.Inc()
		m.flushDirty()
	} else {
		m.tel.FramesSilent.Inc()
	}
	if len(m.pending) > 0 {
		m.declareDeaths()
	}
	m.frame++
}

// flushDirty visits the dirty frame positions in ascending order. A
// delivery may dirty another node: ahead of the cursor it is served in
// this frame, at or behind it in the next one.
func (m *MAC) flushDirty() {
	for w := 0; w < len(m.dirty) && m.dirtyN > 0; w++ {
		var done uint64 // this word's positions at or behind the cursor
		for {
			set := m.dirty[w] &^ done
			if set == 0 {
				break
			}
			b := bits.TrailingZeros64(set)
			bit := uint64(1) << b
			done |= bit<<1 - 1
			m.dirty[w] &^= bit
			m.dirtyN--
			id := m.order[w<<6+b]
			if st := &m.nodes[id]; len(st.queue) > 0 && m.channel.Alive(id) {
				m.flush(id, st)
			}
		}
	}
}

// flush transmits a node's queue as it stood at the start of its slot;
// messages enqueued by the node's own deliveries wait for the next slot
// (they land in the swapped-in spare buffer).
func (m *MAC) flush(id topology.NodeID, st *nodeState) {
	pending := st.queue
	st.queue = st.spare[:0]
	m.tel.MessagesFlushed.Add(int64(len(pending)))
	for _, qm := range pending {
		switch {
		case qm.broadcast:
			m.channel.Broadcast(id, qm.class, qm.msg)
		case qm.targets != nil:
			m.channel.Multicast(id, qm.targets, qm.class, qm.msg)
		default:
			m.channel.Unicast(id, qm.to, qm.class, qm.msg)
		}
	}
	// Recycle: address lists go back to the pool, message references
	// are dropped, and the flushed buffer becomes next frame's spare.
	for i := range pending {
		if pending[i].targets != nil {
			m.putTargets(pending[i].targets)
		}
		pending[i] = queuedMsg{}
	}
	st.spare = pending[:0]
}

// declareDeaths walks the pending list in edge order, which is (holder,
// dead neighbor) order, so same-frame tree surgery stays deterministic.
// An entry whose stamp is deadThreshold frames old fires and marks the
// neighbor unheard; one whose holder died, whose neighbor came back or
// whose stamp is unheard is dropped, as no frame can declare it any more.
// That also drops the duplicate a kill, rejoin and kill between two
// frames leaves behind.
func (m *MAC) declareDeaths() {
	slices.SortFunc(m.pending, func(a, b deathWatch) int { return cmp.Compare(a.edge, b.edge) })
	keep := m.pending[:0]
	for _, dw := range m.pending {
		dead := m.adjFlat[dw.edge]
		last := m.lastHeard[dw.edge]
		if !m.channel.Alive(dw.at) || m.channel.Alive(dead) || last == unheard {
			continue
		}
		if m.frame-last < m.deadThreshold {
			keep = append(keep, dw)
			continue
		}
		m.lastHeard[dw.edge] = unheard
		if m.onDead != nil {
			m.onDead(dw.at, dead)
		}
	}
	m.pending = keep
}

// Kill powers a node off: it stops beaconing and transmitting immediately.
// Neighbors will detect the death after the dead-threshold elapses.
func (m *MAC) Kill(id topology.NodeID) {
	if id == topology.Root {
		panic("lmac: killing the root/sink is not modelled")
	}
	m.channel.SetAlive(id, false)
	m.nodes[id].queue = nil
}

// Join powers on a (previously dead or never-started) node. Its slot was
// pre-assigned by the global schedule; it learns its live neighbors at
// once, and they hear its beacon from the next frame on.
func (m *MAC) Join(id topology.NodeID) {
	if m.channel.Alive(id) {
		// No power flip, so the channel stays quiet; the join still
		// re-primes the node's table.
		m.onAliveChange(id, true)
	} else {
		m.channel.SetAlive(id, true)
	}
}

// AssignSlots computes a TDMA schedule in which no two nodes within two hops
// of each other share a slot — the LMAC property that makes slots
// collision-free at every receiver. Nodes pick the lowest free slot in
// BFS-from-root order, mirroring LMAC's gateway-outward wave of slot
// adoption. It returns the slot per node.
func AssignSlots(g *topology.Graph) ([]int, error) {
	n := g.Len()
	slots := make([]int, n)
	for i := range slots {
		slots[i] = -1
	}
	if n == 0 {
		return slots, nil
	}
	order := g.ReachableFrom(topology.Root)
	if len(order) != n {
		return nil, fmt.Errorf("lmac: graph is not connected (%d of %d reachable)", len(order), n)
	}
	// Generation-stamped "used" marks replace a per-node map: one shared
	// slice, reset by bumping the generation counter.
	usedStamp := make([]int32, 64)
	gen := int32(0)
	mark := func(s int) {
		for s >= len(usedStamp) {
			usedStamp = append(usedStamp, 0)
		}
		usedStamp[s] = gen
	}
	for _, id := range order {
		gen++
		for _, nb := range g.Neighbors(id) {
			if slots[nb] >= 0 {
				mark(slots[nb])
			}
			for _, nb2 := range g.Neighbors(nb) {
				if nb2 != id && slots[nb2] >= 0 {
					mark(slots[nb2])
				}
			}
		}
		s := 0
		for s < len(usedStamp) && usedStamp[s] == gen {
			s++
		}
		slots[id] = s
	}
	return slots, nil
}
