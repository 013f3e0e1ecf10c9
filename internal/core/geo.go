package core

import (
	"slices"

	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/topology"
)

// GeoResolver supplies the static location knowledge that enables
// location-constrained routing (§2: DirQ routes on "location (static) if
// it is available"). The geo package provides the implementation.
type GeoResolver interface {
	// SubtreeBox returns the bounding box of a node's subtree.
	SubtreeBox(id topology.NodeID) (topology.Rect, bool)
	// Position returns a node's own static position.
	Position(id topology.NodeID) topology.Position
}

// GeoQueryMsg couples a range query with a location constraint: "acquire
// all temperature readings between 22 and 25 °C in the north-west plot".
type GeoQueryMsg struct {
	Q    query.Query
	Rect topology.Rect
}

// SetGeo installs the node's location resolver. Without one, geo queries
// degrade gracefully to value-only routing.
func (n *Node) SetGeo(g GeoResolver) { n.geo = g }

// onGeoQuery records receipt and routes with the additional spatial
// constraint.
func (n *Node) onGeoQuery(m GeoQueryMsg) {
	n.observer.QueryReceived(n.id, m.Q.ID)
	n.emit(TraceEvent{Kind: TraceQueryReceived, Node: n.id, Peer: -1, QueryID: m.Q.ID})
	n.RouteGeoQuery(m, true)
}

// RouteGeoQuery forwards a location-constrained query to exactly the
// children whose stored value ranges match AND whose subtree bounding
// boxes intersect the query rectangle. When answer is true the node also
// checks itself (value tuple match and own position inside the rectangle).
func (n *Node) RouteGeoQuery(m GeoQueryMsg, answer bool) {
	rt := n.tables[m.Q.Type]
	if rt == nil {
		return
	}
	if answer && n.mounted.Has(m.Q.Type) {
		if own, ok := rt.Own(); ok && own.Intersects(m.Q.Lo, m.Q.Hi) {
			if n.geo == nil || m.Rect.Contains(n.geo.Position(n.id)) {
				n.observer.QuerySource(n.id, m.Q.ID)
				n.emit(TraceEvent{Kind: TraceQuerySource, Node: n.id, Peer: -1, QueryID: m.Q.ID})
			}
		}
	}
	targets := rt.AppendIntersecting(nil, m.Q.Lo, m.Q.Hi)
	if n.geo != nil {
		targets = slices.DeleteFunc(targets, func(c topology.NodeID) bool {
			box, ok := n.geo.SubtreeBox(c)
			return ok && !box.Intersects(m.Rect)
		})
	}
	if len(targets) > 0 {
		n.transport.Multicast(n.id, targets, radio.ClassQuery, m)
	}
}

// SetGeo installs a location resolver on every node.
func (p *Protocol) SetGeo(g GeoResolver) {
	for _, n := range p.nodes {
		n.SetGeo(g)
	}
}

// InjectGeoQuery starts directed dissemination of a location-constrained
// query at the root.
func (p *Protocol) InjectGeoQuery(q query.Query, rect topology.Rect,
	truth query.GroundTruth) *QueryRecord {

	r := p.register(q, truth)
	p.nodes[p.tree.Root()].RouteGeoQuery(GeoQueryMsg{Q: q, Rect: rect}, false)
	return r
}
