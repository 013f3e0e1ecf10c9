package core

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sensordata"
	"repro/internal/topology"
)

func TestGeoRoutingPrunesBySubtreeBox(t *testing.T) {
	tn := buildNet(t, 25, 31, fixedCfg(3))
	tn.run(60)

	pos := func(id topology.NodeID) topology.Position { return tn.graph.Pos(id) }
	ix, err := geo.NewIndex(tn.tree, pos)
	if err != nil {
		t.Fatal(err)
	}
	tn.proto.SetGeo(ix)

	ty := sensordata.Temperature
	lo, hi := ty.Span()
	val := func(id topology.NodeID) float64 { return tn.gen.Value(id, ty) }

	// A rectangle covering only the left half of the deployment.
	rect := topology.Rect{MinX: 0, MinY: 0, MaxX: 50, MaxY: 100}
	q := mkQuery(500, ty, lo, hi) // match-all on value: the rect does the pruning
	truth := query.ResolveGeo(q, rect, tn.tree, tn.mounted, val, pos)
	rec := tn.proto.InjectGeoQuery(q, rect, truth)
	tn.run(120)

	// Every in-rect node must answer; no node outside may answer.
	for _, src := range truth.Sources {
		if !rec.Sources.Has(src) {
			t.Fatalf("in-rect node %d did not answer", src)
		}
	}
	for _, id := range rec.Sources.IDs() {
		if !rect.Contains(pos(id)) {
			t.Fatalf("node %d outside the rectangle answered", id)
		}
	}
	// Pruning: some subtrees lie entirely outside the rect, so the geo
	// query must reach strictly fewer nodes than a match-all value query.
	q2 := mkQuery(501, ty, lo, hi)
	truth2 := query.Resolve(q2, tn.tree, tn.mounted, val)
	rec2 := tn.proto.InjectQuery(q2, truth2)
	tn.run(180)
	if rec.Received.Len() >= rec2.Received.Len() {
		t.Fatalf("geo query reached %d nodes, plain match-all reached %d: no spatial pruning",
			rec.Received.Len(), rec2.Received.Len())
	}
}

func TestGeoRoutingCheaperThanValueOnly(t *testing.T) {
	tn := buildNet(t, 25, 32, fixedCfg(3))
	tn.run(60)
	pos := func(id topology.NodeID) topology.Position { return tn.graph.Pos(id) }
	ix, err := geo.NewIndex(tn.tree, pos)
	if err != nil {
		t.Fatal(err)
	}
	tn.proto.SetGeo(ix)

	ty := sensordata.Humidity
	lo, hi := ty.Span()
	val := func(id topology.NodeID) float64 { return tn.gen.Value(id, ty) }

	before := tn.channel.Meter().ByClass(radio.ClassQuery).Total()
	rect := topology.Rect{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30}
	q := mkQuery(600, ty, lo, hi)
	tn.proto.InjectGeoQuery(q, rect, query.ResolveGeo(q, rect, tn.tree, tn.mounted, val, pos))
	tn.run(120)
	geoCost := tn.channel.Meter().ByClass(radio.ClassQuery).Total() - before

	before = tn.channel.Meter().ByClass(radio.ClassQuery).Total()
	q2 := mkQuery(601, ty, lo, hi)
	tn.proto.InjectQuery(q2, query.Resolve(q2, tn.tree, tn.mounted, val))
	tn.run(180)
	plainCost := tn.channel.Meter().ByClass(radio.ClassQuery).Total() - before

	if geoCost >= plainCost {
		t.Fatalf("geo-constrained dissemination cost %d >= unconstrained %d", geoCost, plainCost)
	}
}

func TestGeoQueryWithoutResolverFallsBack(t *testing.T) {
	// Without SetGeo, a geo query routes like a value query (graceful
	// degradation when no localization is deployed).
	tn := buildNet(t, 15, 33, fixedCfg(3))
	tn.run(60)
	ty := sensordata.Light
	lo, hi := ty.Span()
	val := func(id topology.NodeID) float64 { return tn.gen.Value(id, ty) }
	pos := func(id topology.NodeID) topology.Position { return tn.graph.Pos(id) }

	rect := topology.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1} // covers nobody
	q := mkQuery(700, ty, lo, hi)
	rec := tn.proto.InjectGeoQuery(q, rect, query.ResolveGeo(q, rect, tn.tree, tn.mounted, val, pos))
	tn.run(120)
	// Fallback: everyone with a matching value still receives (no geo
	// knowledge, so no spatial pruning and no spatial source filter).
	if rec.Received.Len() == 0 {
		t.Fatal("fallback routing delivered nothing")
	}
}

func TestGeoSourceFilterExcludesOutOfRect(t *testing.T) {
	tr := &fakeTransport{}
	obs := &fakeObserver{}
	n := NewNode(2, tempOnly(), &FixedController{Pct: 4}, tr, obs)
	n.SetParent(0, true)
	n.OnReading(sensordata.Temperature, 20)

	positions := map[topology.NodeID]topology.Position{2: {X: 5, Y: 5}}
	tree := topology.NewTree(0)
	if err := tree.Attach(0, 2); err != nil {
		t.Fatal(err)
	}
	ix, err := geo.NewIndex(tree, func(id topology.NodeID) topology.Position {
		return positions[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	n.SetGeo(ix)

	inRect := topology.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	outRect := topology.Rect{MinX: 50, MinY: 50, MaxX: 60, MaxY: 60}

	n.HandleMessage(0, GeoQueryMsg{Q: mkQuery(1, sensordata.Temperature, 0, 50), Rect: inRect})
	if len(obs.sources) != 1 {
		t.Fatalf("in-rect source not recorded: %v", obs.sources)
	}
	obs.sources = nil
	n.HandleMessage(0, GeoQueryMsg{Q: mkQuery(2, sensordata.Temperature, 0, 50), Rect: outRect})
	if len(obs.sources) != 0 {
		t.Fatalf("out-of-rect node answered: %v", obs.sources)
	}
	if len(obs.received) != 2 {
		t.Fatalf("receipts %v, want both queries recorded", obs.received)
	}
}
