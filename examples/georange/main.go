// Georange demonstrates the paper's optional location attribute (§2:
// DirQ can route on "location (static) if it is available"): queries
// constrained to a rectangular plot are pruned spatially using static
// subtree bounding boxes — no update traffic needed, since positions never
// change — and cost far less than value-only dissemination.
package main

import (
	"fmt"
	"log"

	dirq "repro"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sensordata"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)

	cfg := dirq.DefaultScenario()
	cfg.Seed = 5
	cfg.Epochs = 1500
	cfg.FixedPct = 3

	r, err := dirq.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Warm the range tables up.
	r.Proto.Start()
	r.MAC.Start()
	r.Engine.RunUntil(100)

	pos := func(id topology.NodeID) topology.Position { return r.Graph.Pos(id) }
	ix, err := geo.NewIndex(r.Tree, pos)
	if err != nil {
		log.Fatal(err)
	}
	r.Proto.SetGeo(ix)

	fmt.Println("Location-constrained range queries")
	fmt.Println("==================================")
	ty := sensordata.Temperature
	lo, hi := ty.Span()
	val := func(id topology.NodeID) float64 { return r.Gen.Value(id, ty) }

	quadrants := []topology.Rect{
		{MinX: 0, MinY: 0, MaxX: 50, MaxY: 50},
		{MinX: 50, MinY: 0, MaxX: 100, MaxY: 50},
		{MinX: 0, MinY: 50, MaxX: 50, MaxY: 100},
		{MinX: 50, MinY: 50, MaxX: 100, MaxY: 100},
	}
	fmt.Printf("%-22s %-9s %-9s %-10s\n", "plot", "sources", "reached", "cost(units)")
	for i, rect := range quadrants {
		before := r.Meter.ByClass(radio.ClassQuery).Total()
		q := query.Query{ID: int64(100 + i), Type: ty, Lo: lo, Hi: hi}
		truth := query.ResolveGeo(q, rect, r.Tree, r.Mounted, val, pos)
		rec := r.Proto.InjectGeoQuery(q, rect, truth)
		r.Engine.RunUntil(r.Engine.Now() + 25)
		cost := r.Meter.ByClass(radio.ClassQuery).Total() - before
		fmt.Printf("%-22s %-9d %-9d %-10d\n", rect, rec.Sources.Len(), rec.Received.Len(), cost)
	}

	// The same match-all query without a location constraint.
	before := r.Meter.ByClass(radio.ClassQuery).Total()
	q := query.Query{ID: 999, Type: ty, Lo: lo, Hi: hi}
	truth := query.Resolve(q, r.Tree, r.Mounted, val)
	rec := r.Proto.InjectQuery(q, truth)
	r.Engine.RunUntil(r.Engine.Now() + 25)
	cost := r.Meter.ByClass(radio.ClassQuery).Total() - before
	fmt.Printf("%-22s %-9d %-9d %-10d\n", "whole field (no geo)", rec.Sources.Len(), rec.Received.Len(), cost)

	fmt.Println()
	fmt.Println("each quadrant query prunes the other quadrants' subtrees spatially,")
	fmt.Println("so four plot-queries together cost about what one full sweep does.")
}
