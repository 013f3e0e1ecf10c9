package core

import (
	"sort"

	"repro/internal/radio"
	"repro/internal/sensordata"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Transport is how a node hands messages to the link layer. Both functions
// queue for the node's next TDMA slot.
type Transport interface {
	// Unicast sends to one radio neighbor.
	Unicast(from, to topology.NodeID, class radio.Class, msg any)
	// Multicast sends once, addressed to the listed radio neighbors. The
	// targets slice is only valid for the duration of the call — nodes
	// reuse it — so implementations that queue must copy it.
	Multicast(from topology.NodeID, targets []topology.NodeID, class radio.Class, msg any)
}

// QueryObserver receives query-delivery events for accuracy accounting. It
// is measurement infrastructure, not protocol state.
type QueryObserver interface {
	// QueryReceived fires when a node receives a query.
	QueryReceived(id topology.NodeID, queryID int64)
	// QuerySource fires when a receiving node's own stored tuple matches,
	// i.e. the node answers the query.
	QuerySource(id topology.NodeID, queryID int64)
}

// Node is the per-node DirQ state machine. All decisions use strictly local
// information: the node's own readings, its children's last-reported
// aggregates, and the root's estimate broadcasts.
type Node struct {
	id      topology.NodeID
	mounted sensordata.TypeSet

	parent    topology.NodeID
	hasParent bool
	children  []topology.NodeID // sorted

	tables [sensordata.NumTypes]*RangeTable
	vol    [sensordata.NumTypes]*sensordata.Volatility

	ctrl      Controller
	transport Transport
	observer  QueryObserver

	lastEstimateSeq int64
	updatesSent     int64
	trace           func(TraceEvent)
	geo             GeoResolver
	// telUpdates mirrors updatesSent into the shared tuples-sent counter
	// (nil-safe; wired by Protocol when telemetry is attached).
	telUpdates *telemetry.Counter

	// msgPool, when set (by Protocol), recycles Update Message boxes so a
	// range-update hop does not heap-allocate. Nil falls back to plain
	// value boxing — standalone Nodes in tests need no pool.
	msgPool *updateMsgPool
	// targetScratch is reused across RouteQuery calls for the matched-
	// children list handed to Transport.Multicast. Transports must copy.
	targetScratch []topology.NodeID
}

// updateMsgPool is a free list of Update Message boxes, shared across all
// nodes of one Protocol: an update unicast has exactly one receiver, which
// returns the box after copying the payload out, so the pool stays at the
// size of the peak number of in-flight updates.
type updateMsgPool struct {
	free []*UpdateMsg
}

func (p *updateMsgPool) get() *UpdateMsg {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	return new(UpdateMsg)
}

func (p *updateMsgPool) put(m *UpdateMsg) {
	p.free = append(p.free, m)
}

// NewNode builds a DirQ node. The controller, transport and observer must
// be non-nil; pass a FixedController and a no-op observer when not needed.
func NewNode(id topology.NodeID, mounted sensordata.TypeSet, ctrl Controller,
	tr Transport, obs QueryObserver) *Node {

	n := &Node{
		id: id, mounted: mounted, ctrl: ctrl, transport: tr, observer: obs,
		lastEstimateSeq: -1,
	}
	for _, t := range mounted.Types() {
		n.vol[t] = sensordata.NewVolatility(sensordata.DefaultAlpha)
	}
	return n
}

// SetTrace installs an optional trace hook (nil disables tracing).
func (n *Node) SetTrace(fn func(TraceEvent)) { n.trace = fn }

func (n *Node) emit(ev TraceEvent) {
	if n.trace != nil {
		n.trace(ev)
	}
}

// ID returns the node's identifier.
func (n *Node) ID() topology.NodeID { return n.id }

// Mounted returns the node's sensor complement.
func (n *Node) Mounted() sensordata.TypeSet { return n.mounted }

// UpdatesSent returns the number of Update Messages this node has
// transmitted.
func (n *Node) UpdatesSent() int64 { return n.updatesSent }

// DeltaPct returns the node's current threshold (percent of span).
func (n *Node) DeltaPct() float64 { return n.ctrl.DeltaPct() }

// Controller exposes the node's threshold controller.
func (n *Node) Controller() Controller { return n.ctrl }

// SetParent points the node at its (new) parent. Passing ok=false orphans
// the node (it stops sending updates until re-attached).
func (n *Node) SetParent(p topology.NodeID, ok bool) {
	n.parent = p
	n.hasParent = ok
}

// Parent returns the current parent.
func (n *Node) Parent() (topology.NodeID, bool) { return n.parent, n.hasParent }

// AddChild registers a tree child (used for estimate re-distribution; range
// information arrives separately through the child's Update Messages).
func (n *Node) AddChild(c topology.NodeID) {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i] >= c })
	if i < len(n.children) && n.children[i] == c {
		return
	}
	n.children = append(n.children, 0)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
}

// RemoveChild drops a tree child and purges its rows from every range
// table, transmitting any resulting aggregate changes upward — the §4.2
// reaction to a cross-layer dead-neighbor notification.
func (n *Node) RemoveChild(c topology.NodeID) {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i] >= c })
	if i < len(n.children) && n.children[i] == c {
		n.children = append(n.children[:i], n.children[i+1:]...)
	}
	for ti := range n.tables {
		rt := n.tables[ti]
		if rt == nil {
			continue
		}
		if rt.RemoveChild(c) {
			n.maybeSendUpdate(sensordata.Type(ti))
		}
	}
}

// Children returns the node's sorted child list.
func (n *Node) Children() []topology.NodeID { return n.children }

// Table returns the node's range table for a type, or nil if none exists —
// nil meaning the type is absent from the node's entire subtree (Fig. 4).
func (n *Node) Table(t sensordata.Type) *RangeTable { return n.tables[t] }

func (n *Node) table(t sensordata.Type) *RangeTable {
	if n.tables[t] == nil {
		n.tables[t] = NewRangeTable()
	}
	return n.tables[t]
}

// deltaUnits converts the controller's percentage threshold into sensor
// units for one type.
func (n *Node) deltaUnits(t sensordata.Type) float64 {
	return n.ctrl.DeltaPct() / 100 * t.SpanWidth()
}

// OnReading processes one sensor acquisition (one epoch, one type).
// Readings for unmounted types are ignored.
func (n *Node) OnReading(t sensordata.Type, v float64) {
	if !n.mounted.Has(t) {
		return
	}
	n.vol[t].Observe(v)
	rt := n.table(t)
	if rt.ObserveReading(v, n.deltaUnits(t)) {
		n.maybeSendUpdate(t)
	}
}

// TickEpoch advances the controller's epoch clock without computing the
// node's volatility. Valid only when the controller's GatingProfile says
// the volatility argument is ignored — the activity-gated epoch loop uses
// it for quiescent nodes whose controller still counts epochs.
func (n *Node) TickEpoch() { n.ctrl.OnEpoch(0) }

// EndEpoch performs per-epoch bookkeeping: it feeds the controller the
// node's normalized data volatility.
func (n *Node) EndEpoch() {
	var sum float64
	var cnt int
	for _, t := range n.mounted.Types() {
		sum += n.vol[t].MeanAbsDelta() / t.SpanWidth()
		cnt++
	}
	if cnt > 0 {
		n.ctrl.OnEpoch(sum / float64(cnt))
	} else {
		n.ctrl.OnEpoch(0)
	}
}

// maybeSendUpdate transmits an Update Message for type t to the parent if
// the aggregate has moved by more than δ since the last transmission
// (Fig. 3). Orphans and the root (no parent) do not transmit.
func (n *Node) maybeSendUpdate(t sensordata.Type) {
	rt := n.tables[t]
	if rt == nil {
		return
	}
	pu := rt.decideUpdate(n.deltaUnits(t))
	if !pu.send {
		return
	}
	if f, ok := n.ctrl.(UpdateFreezer); ok && f.UpdatesFrozen() {
		return // static-index baseline: never refresh ancestors
	}
	if !n.hasParent {
		// The root (or an orphan) records the aggregate as "seen" so its
		// own routing state stays coherent, but transmits nothing.
		if pu.withdraw {
			rt.markWithdrawn()
		} else {
			rt.markSent(pu.agg)
		}
		return
	}
	if pu.withdraw {
		n.sendUpdate(UpdateMsg{Type: t, Present: false})
		rt.markWithdrawn()
		n.emit(TraceEvent{Kind: TraceWithdraw, Node: n.id, Peer: n.parent, Type: t})
	} else {
		n.sendUpdate(UpdateMsg{Type: t, Min: pu.agg.Min, Max: pu.agg.Max, Present: true})
		rt.markSent(pu.agg)
		n.emit(TraceEvent{Kind: TraceUpdateSent, Node: n.id, Peer: n.parent, Type: t})
	}
	n.updatesSent++
	n.telUpdates.Inc()
	n.ctrl.OnUpdateSent()
}

// sendUpdate unicasts one Update Message to the parent, through the pool
// when one is installed so the interface box is recycled by the receiver.
func (n *Node) sendUpdate(m UpdateMsg) {
	if n.msgPool != nil {
		box := n.msgPool.get()
		*box = m
		n.transport.Unicast(n.id, n.parent, radio.ClassUpdate, box)
		return
	}
	n.transport.Unicast(n.id, n.parent, radio.ClassUpdate, m)
}

// ResetTreeLinks dissolves the node's tree wiring: parent, child list and
// every child row in every range table. It is called when the node's
// subtree is torn down after an upstream death — the former children
// re-attach independently (possibly elsewhere) and re-report their ranges,
// so keeping their rows would leave stale range information behind. The
// node's own tuples and volatility state survive.
func (n *Node) ResetTreeLinks() {
	n.hasParent = false
	n.children = nil
	for ti := range n.tables {
		rt := n.tables[ti]
		if rt == nil {
			continue
		}
		rt.ClearChildren()
		rt.markWithdrawn() // next attachment re-reports from scratch
		if rt.Empty() {
			n.tables[ti] = nil
		}
	}
}

// ResendAll force-transmits the current aggregate of every non-empty table
// to the (new) parent — used after re-attachment so the new parent learns
// the subtree's ranges (§4.2).
func (n *Node) ResendAll() {
	for ti := range n.tables {
		rt := n.tables[ti]
		if rt == nil {
			continue
		}
		rt.markWithdrawn() // forget previous parent's view
		n.maybeSendUpdate(sensordata.Type(ti))
	}
}

// HandleMessage dispatches a link-layer delivery. Query and estimate
// deliveries keep the incoming interface box and forward it unchanged, so
// a multi-hop wave boxes its message once at the origin; pooled update
// boxes are copied out and recycled here, at their single receiver.
func (n *Node) HandleMessage(from topology.NodeID, msg any) {
	switch m := msg.(type) {
	case *UpdateMsg:
		v := *m
		if n.msgPool != nil {
			n.msgPool.put(m)
		}
		n.onUpdate(from, v)
	case UpdateMsg:
		n.onUpdate(from, m)
	case QueryMsg:
		n.onQuery(m, msg)
	case GeoQueryMsg:
		n.onGeoQuery(m)
	case EstimateMsg:
		n.onEstimate(m, msg)
	}
}

// onUpdate merges a child's Update Message into the table and propagates
// any significant aggregate change upward.
func (n *Node) onUpdate(from topology.NodeID, m UpdateMsg) {
	rt := n.table(m.Type)
	changed := false
	if m.Present {
		changed = rt.SetChild(from, Tuple{Min: m.Min, Max: m.Max})
	} else {
		changed = rt.RemoveChild(from)
	}
	if changed {
		n.maybeSendUpdate(m.Type)
	}
}

// onQuery records receipt, answers if the node's own stored tuple matches,
// and forwards the query to exactly the children whose stored aggregates
// intersect the range — the directed dissemination of §4.1.
func (n *Node) onQuery(m QueryMsg, boxed any) {
	n.observer.QueryReceived(n.id, m.Q.ID)
	n.emit(TraceEvent{Kind: TraceQueryReceived, Node: n.id, Peer: -1, QueryID: m.Q.ID})
	n.routeQuery(m, boxed, true)
}

// RouteQuery forwards a query towards matching children; when answer is
// true the node also checks its own tuple and reports itself as a source.
// The root calls this with answer=false at injection time (the sink holds
// no sensors and does not count as a receiver).
func (n *Node) RouteQuery(m QueryMsg, answer bool) {
	n.routeQuery(m, m, answer)
}

// routeQuery is RouteQuery with the query's interface box supplied by the
// caller, so every hop of one dissemination wave shares a single box.
func (n *Node) routeQuery(m QueryMsg, boxed any, answer bool) {
	rt := n.tables[m.Q.Type]
	if rt == nil {
		return
	}
	if answer && n.mounted.Has(m.Q.Type) {
		if own, ok := rt.Own(); ok && own.Intersects(m.Q.Lo, m.Q.Hi) {
			n.observer.QuerySource(n.id, m.Q.ID)
			n.emit(TraceEvent{Kind: TraceQuerySource, Node: n.id, Peer: -1, QueryID: m.Q.ID})
		}
	}
	targets := rt.AppendIntersecting(n.targetScratch[:0], m.Q.Lo, m.Q.Hi)
	n.targetScratch = targets
	if len(targets) > 0 {
		n.transport.Multicast(n.id, targets, radio.ClassQuery, boxed)
	}
}

// onEstimate consumes an hourly estimate and passes it one level further
// down the tree (deduplicated by sequence number, since the multicast can
// reach a node through stale paths after re-attachment).
func (n *Node) onEstimate(m EstimateMsg, boxed any) {
	if m.Seq <= n.lastEstimateSeq {
		return
	}
	n.lastEstimateSeq = m.Seq
	n.ctrl.OnEstimate(m)
	n.forwardEstimate(boxed)
}

// ForwardEstimate multicasts an estimate to all current children.
func (n *Node) ForwardEstimate(m EstimateMsg) {
	n.forwardEstimate(m)
}

// forwardEstimate multicasts an already-boxed estimate to all children.
func (n *Node) forwardEstimate(boxed any) {
	if len(n.children) > 0 {
		n.transport.Multicast(n.id, n.children, radio.ClassEstimate, boxed)
	}
}
