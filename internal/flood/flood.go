package flood

import (
	"repro/internal/radio"
	"repro/internal/topology"
)

// Result describes one flooding operation.
type Result struct {
	// Reached lists every node that received (and re-broadcast) the query,
	// in BFS order from the origin. The origin itself is included: it
	// transmits the query too.
	Reached []topology.NodeID
	// Cost is the tx/rx unit cost of this flood alone.
	Cost radio.Cost
}

// Scratch holds reusable BFS state for repeated flood computations over
// the same graph, so the per-query flooding-baseline accounting in the
// simulation hot path does not allocate. The zero value is ready to use;
// a Scratch must not be shared between goroutines.
type Scratch struct {
	visited []bool
	order   []topology.NodeID
}

// bfs fills s.order with the live nodes reachable from origin in BFS
// order. The caller must have checked that origin is alive.
func (s *Scratch) bfs(g *topology.Graph, alive func(topology.NodeID) bool, origin topology.NodeID) {
	if cap(s.visited) < g.Len() {
		s.visited = make([]bool, g.Len())
	}
	s.visited = s.visited[:g.Len()]
	s.order = append(s.order[:0], origin)
	s.visited[origin] = true
	for i := 0; i < len(s.order); i++ {
		for _, nb := range g.Neighbors(s.order[i]) {
			if alive(nb) && !s.visited[nb] {
				s.visited[nb] = true
				s.order = append(s.order, nb)
			}
		}
	}
	// Un-mark only the nodes visited, so the next run starts clean without
	// an O(N) wipe.
	for _, id := range s.order {
		s.visited[id] = false
	}
}

// Disseminate floods msg from the origin across all live nodes reachable
// over live radio links, accounting costs on the channel's meter under
// radio.ClassFlood. The channel's receiver hears the message once per live
// neighbor of each node, exactly as a real flood would deliver duplicates.
func (s *Scratch) Disseminate(ch *radio.Channel, origin topology.NodeID, msg any) Result {
	g := ch.Graph()
	if !ch.Alive(origin) {
		return Result{}
	}
	before := ch.Meter().ByClass(radio.ClassFlood)

	s.bfs(g, ch.Alive, origin)
	// Every participant broadcasts exactly once.
	for _, id := range s.order {
		ch.Broadcast(id, radio.ClassFlood, msg)
	}

	after := ch.Meter().ByClass(radio.ClassFlood)
	return Result{
		Reached: append([]topology.NodeID(nil), s.order...),
		Cost:    radio.Cost{Tx: after.Tx - before.Tx, Rx: after.Rx - before.Rx},
	}
}

// CostOnly computes the cost of one flood without delivering anything or
// touching any meter — used for analytic comparisons: reached-node count
// plus twice the live-link count among reached nodes.
func (s *Scratch) CostOnly(g *topology.Graph, alive func(topology.NodeID) bool, origin topology.NodeID) radio.Cost {
	if !alive(origin) {
		return radio.Cost{}
	}
	s.bfs(g, alive, origin)
	var rx int64
	for _, id := range s.order {
		for _, nb := range g.Neighbors(id) {
			if alive(nb) {
				rx++ // each live link counted once per direction
			}
		}
	}
	return radio.Cost{Tx: int64(len(s.order)), Rx: rx}
}

// Disseminate is the Scratch-free convenience form of Scratch.Disseminate.
func Disseminate(ch *radio.Channel, origin topology.NodeID, msg any) Result {
	var s Scratch
	return s.Disseminate(ch, origin, msg)
}
