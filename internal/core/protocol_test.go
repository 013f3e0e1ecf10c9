package core

import (
	"math"
	"testing"

	"repro/internal/lmac"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sensordata"
	"repro/internal/sim"
	"repro/internal/topology"
)

func mkQuery(id int64, t sensordata.Type, lo, hi float64) query.Query {
	return query.Query{ID: id, Type: t, Lo: lo, Hi: hi}
}

// testNet is a fully wired small network for integration tests.
type testNet struct {
	engine  *sim.Engine
	graph   *topology.Graph
	tree    *topology.Tree
	channel *radio.Channel
	mac     *lmac.MAC
	gen     *sensordata.Generator
	mounted []sensordata.TypeSet
	proto   *Protocol
}

// buildNet creates a deterministic random network of n nodes with every
// node mounting all sensor types.
func buildNet(t *testing.T, n int, seed uint64, cfg Config) *testNet {
	t.Helper()
	rng := sim.NewRNG(seed)
	g, err := topology.PlaceRandom(topology.PlacementConfig{
		N: n, Width: 100, Height: 100, RadioRange: 30,
	}, rng.Stream("place"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := topology.BuildSpanningTree(g, topology.Root, cfg.MaxFanout, cfg.MaxDepth)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	mac, err := lmac.New(engine, ch)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]topology.Position, g.Len())
	for i := range pos {
		pos[i] = g.Pos(topology.NodeID(i))
	}
	gen := sensordata.NewGenerator(pos, rng.Stream("data"))
	mounted := sensordata.AssignAllTypes(g.Len())
	proto, err := New(engine, mac, ch, tree, gen, mounted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testNet{
		engine: engine, graph: g, tree: tree, channel: ch, mac: mac,
		gen: gen, mounted: mounted, proto: proto,
	}
}

// run starts the MAC and application loops and runs until the given epoch.
func (tn *testNet) run(until sim.Time) {
	if !tn.proto.started {
		tn.proto.Start()
		tn.mac.Start()
	}
	tn.engine.RunUntil(until)
}

// fixedCfg returns the paper-default parameters (100 epochs per hour, k=8,
// d=10) with a fixed δ of pct on every node.
func fixedCfg(pct float64) Config {
	return Config{
		EpochsPerHour:  100,
		MaxFanout:      8,
		MaxDepth:       10,
		Controllers:    func(topology.NodeID) Controller { return &FixedController{Pct: pct} },
		PredictorAlpha: 0.3,
	}
}

func TestProtocolValidation(t *testing.T) {
	tn := buildNet(t, 10, 1, fixedCfg(5))
	bad := fixedCfg(5)
	bad.EpochsPerHour = 0
	if _, err := New(tn.engine, tn.mac, tn.channel, tn.tree, tn.gen, tn.mounted, bad); err == nil {
		t.Fatal("EpochsPerHour=0 accepted")
	}
	bad = fixedCfg(5)
	bad.Controllers = nil
	if _, err := New(tn.engine, tn.mac, tn.channel, tn.tree, tn.gen, tn.mounted, bad); err == nil {
		t.Fatal("nil Controllers accepted")
	}
	bad = fixedCfg(5)
	bad.MaxFanout = 0
	if _, err := New(tn.engine, tn.mac, tn.channel, tn.tree, tn.gen, tn.mounted, bad); err == nil {
		t.Fatal("MaxFanout=0 accepted")
	}
}

func TestInitialUpdatesReachRoot(t *testing.T) {
	tn := buildNet(t, 20, 2, fixedCfg(5))
	tn.run(40) // enough frames for initial reports to climb the tree
	root := tn.proto.Node(topology.Root)
	for _, ty := range sensordata.AllTypes() {
		rt := root.Table(ty)
		if rt == nil {
			t.Fatalf("root has no %v table after warm-up", ty)
		}
		// Every root child must have reported.
		for _, c := range tn.tree.Children(topology.Root) {
			if _, ok := rt.Child(c); !ok {
				t.Fatalf("root missing %v entry for child %d", ty, c)
			}
		}
	}
}

func TestRangeInvariantAfterWarmup(t *testing.T) {
	// Every node's stored child tuple must contain the child's reported
	// aggregate within δ slack — here we check the structural half: parent
	// entry exists for every child with data, and aggregate bounds rows.
	tn := buildNet(t, 25, 3, fixedCfg(5))
	tn.run(60)
	for _, id := range tn.tree.Nodes() {
		n := tn.proto.Node(id)
		for _, ty := range sensordata.AllTypes() {
			rt := n.Table(ty)
			if rt == nil {
				continue
			}
			agg, ok := rt.Aggregate()
			if !ok {
				continue
			}
			if own, has := rt.Own(); has && (own.Min < agg.Min || own.Max > agg.Max) {
				t.Fatalf("node %d %v: own %+v outside aggregate %+v", id, ty, own, agg)
			}
			for _, c := range rt.Children() {
				tu, _ := rt.Child(c)
				if tu.Min < agg.Min || tu.Max > agg.Max {
					t.Fatalf("node %d %v: child %d %+v outside aggregate %+v", id, ty, c, tu, agg)
				}
			}
		}
	}
}

func TestQueryReachesMatchingSources(t *testing.T) {
	tn := buildNet(t, 25, 4, fixedCfg(3))
	tn.run(60)

	ty := sensordata.Temperature
	val := func(id topology.NodeID) float64 { return tn.gen.Value(id, ty) }
	// Query centred on node 5's current value: node 5 must be a source.
	centre := val(5)
	q := mkQuery(100, ty, centre-1, centre+1)
	truth := query.Resolve(q, tn.tree, tn.mounted, val)
	rec := tn.proto.InjectQuery(q, truth)
	tn.run(80) // let it propagate

	if !rec.Sources.Has(5) {
		t.Fatalf("node 5 (value %v in [%v,%v]) not a source; sources=%v",
			centre, q.Lo, q.Hi, rec.Sources.IDs())
	}
	// Every ground-truth source whose stored tuple is fresh enough should
	// have received the query; with δ=3% staleness is bounded, so at least
	// half the true sources must be reached.
	reached := 0
	for _, s := range truth.Sources {
		if rec.Received.Has(s) {
			reached++
		}
	}
	if len(truth.Sources) > 0 && reached*2 < len(truth.Sources) {
		t.Fatalf("only %d of %d true sources reached", reached, len(truth.Sources))
	}
}

func TestQueryWithZeroDeltaPerfectlyAccurate(t *testing.T) {
	// With δ=0 every reading change propagates, so after quiescence the
	// stored ranges equal the true values and routing is exact.
	cfg := fixedCfg(0)
	tn := buildNet(t, 15, 5, cfg)
	// Freeze the data so the network quiesces: zero out noise and drift.
	for _, ty := range sensordata.AllTypes() {
		p := sensordata.DefaultParams(ty)
		p.NoiseSigma = 0
		p.DriftStep = 0
		p.DiurnalAmp = 0
		tn.gen.SetParams(ty, p)
	}
	tn.run(60)

	ty := sensordata.Humidity
	val := func(id topology.NodeID) float64 { return tn.gen.Value(id, ty) }
	lo, hi := ty.Span()
	mid := (lo + hi) / 2
	q := mkQuery(200, ty, lo, mid)
	truth := query.Resolve(q, tn.tree, tn.mounted, val)
	rec := tn.proto.InjectQuery(q, truth)
	tn.run(100)

	for _, id := range truth.Should.IDs() {
		if !rec.Received.Has(id) {
			t.Fatalf("δ=0 frozen data: node %d should receive but did not", id)
		}
	}
	for _, id := range rec.Received.IDs() {
		if !truth.Should.Has(id) {
			t.Fatalf("δ=0 frozen data: node %d received but should not", id)
		}
	}
	// Sources must match exactly.
	for _, s := range truth.Sources {
		if !rec.Sources.Has(s) {
			t.Fatalf("true source %d did not answer", s)
		}
	}
}

func TestEstimateDistribution(t *testing.T) {
	cfg := fixedCfg(5)
	cfg.EpochsPerHour = 20
	cfg.Budget = func(eHr int) float64 { return float64(eHr) * 2 }
	tn := buildNet(t, 15, 6, cfg)

	got := map[topology.NodeID]EstimateMsg{}
	for i := 1; i < 15; i++ {
		id := topology.NodeID(i)
		ctrl := tn.proto.Node(id).Controller()
		_ = ctrl
	}
	// Track estimates via a recording controller instead.
	rec := map[topology.NodeID]*countingController{}
	cfg2 := cfg
	cfg2.Controllers = func(id topology.NodeID) Controller {
		c := &countingController{FixedController: FixedController{Pct: 5}}
		rec[id] = c
		return c
	}
	tn2 := buildNet(t, 15, 6, cfg2)
	// Inject some queries so the predictor forecasts non-zero.
	tn2.proto.Start()
	tn2.mac.Start()
	for e := sim.Time(0); e < 100; e += 10 {
		tn2.engine.RunUntil(e)
		ty := sensordata.Temperature
		val := func(id topology.NodeID) float64 { return tn2.gen.Value(id, ty) }
		q := mkQuery(int64(e), ty, 0, 50)
		tn2.proto.InjectQuery(q, query.Resolve(q, tn2.tree, tn2.mounted, val))
	}
	tn2.engine.RunUntil(130)

	for id, c := range rec {
		if id == topology.Root {
			continue
		}
		if c.estimates == 0 {
			t.Fatalf("node %d never received an estimate", id)
		}
	}
	if tn2.proto.EstimateSeq() < 4 {
		t.Fatalf("only %d estimate waves in 130 epochs with hour=20", tn2.proto.EstimateSeq())
	}
	_ = got
}

func TestNodeDeathRepairsTree(t *testing.T) {
	tn := buildNet(t, 30, 7, fixedCfg(5))
	tn.run(50)

	// Kill an internal node with children.
	var victim topology.NodeID = -1
	for _, id := range tn.tree.Nodes() {
		if id != topology.Root && len(tn.tree.Children(id)) > 0 {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Skip("no internal node in this draw")
	}
	orphanedKids := append([]topology.NodeID(nil), tn.tree.Children(victim)...)
	tn.proto.KillNode(victim)
	tn.run(80) // death detection + reattachment + re-reports

	if tn.tree.Contains(victim) {
		t.Fatal("dead node still in the tree")
	}
	if err := tn.tree.Validate(); err != nil {
		t.Fatalf("tree invalid after repair: %v", err)
	}
	for _, kid := range orphanedKids {
		if !tn.tree.Contains(kid) && !contains(tn.proto.Orphans(), kid) {
			t.Fatalf("node %d neither re-attached nor tracked as orphan", kid)
		}
	}
	// The dead node's parent must have purged it.
	for _, id := range tn.tree.Nodes() {
		n := tn.proto.Node(id)
		for _, ty := range sensordata.AllTypes() {
			if rt := n.Table(ty); rt != nil {
				if _, ok := rt.Child(victim); ok {
					t.Fatalf("node %d still has a %v row for dead node %d", id, ty, victim)
				}
			}
		}
	}
}

func contains(s []topology.NodeID, v topology.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestQueriesStillAccurateAfterDeath(t *testing.T) {
	tn := buildNet(t, 30, 8, fixedCfg(3))
	tn.run(50)
	// Kill a leaf to keep every other node reachable.
	leaf := tn.tree.Leaves()[0]
	if leaf == topology.Root {
		t.Skip("degenerate tree")
	}
	tn.proto.KillNode(leaf)
	tn.run(100)

	ty := sensordata.Light
	val := func(id topology.NodeID) float64 { return tn.gen.Value(id, ty) }
	lo, hi := ty.Span()
	q := mkQuery(300, ty, lo, hi) // match-everything query
	truth := query.Resolve(q, tn.tree, tn.mounted, val)
	rec := tn.proto.InjectQuery(q, truth)
	tn.run(140)

	if rec.Received.Has(leaf) {
		t.Fatal("dead node received a query")
	}
	missing := 0
	for _, id := range truth.Should.IDs() {
		if !rec.Received.Has(id) {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d live relevant nodes missed a match-all query after repair", missing)
	}
}

func TestJoinNodeIntegratesIntoTree(t *testing.T) {
	// Build a network where one node starts powered off, then joins.
	rng := sim.NewRNG(9)
	g, err := topology.PlaceRandom(topology.PlacementConfig{
		N: 20, Width: 100, Height: 100, RadioRange: 35,
	}, rng.Stream("place"))
	if err != nil {
		t.Fatal(err)
	}
	// The late node is a leaf of the spanning tree, so the tree without
	// it still spans every other node.
	tree, err := topology.BuildSpanningTree(g, topology.Root, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	late := leaves[len(leaves)-1]
	if _, err := tree.Detach(late); err != nil {
		t.Fatal(err)
	}

	engine := sim.NewEngine()
	ch := radio.NewChannel(g, radio.NewMeter(g.Len()))
	ch.SetAlive(late, false)
	mac, err := lmac.New(engine, ch)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]topology.Position, g.Len())
	for i := range pos {
		pos[i] = g.Pos(topology.NodeID(i))
	}
	gen := sensordata.NewGenerator(pos, rng.Stream("data"))
	mounted := sensordata.AssignAllTypes(g.Len())
	mounted[late] = 0 // joins with sensors later
	proto, err := New(engine, mac, ch, tree, gen, mounted, fixedCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	proto.Start()
	mac.Start()
	engine.RunUntil(30)

	// Join with a soil-moisture sensor — a new type appearing post-deploy.
	soil := sensordata.TypeSet(0).With(sensordata.SoilMoisture)
	if err := proto.JoinNode(late, soil); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	engine.RunUntil(80)

	if !tree.Contains(late) {
		t.Fatal("joined node not in tree")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("tree invalid after join: %v", err)
	}
	par, _ := tree.Parent(late)
	prt := proto.Node(par).Table(sensordata.SoilMoisture)
	if prt == nil {
		t.Fatalf("parent %d has no soil table after join", par)
	}
	if _, ok := prt.Child(late); !ok {
		t.Fatalf("parent %d missing soil row for joined node", par)
	}

	// The joined node also receives: a match-all soil query reaches it and
	// it answers as a source. Only the Node JoinNode built mounts the soil
	// sensor, so a delivery to the node it replaced would not count.
	rec := proto.InjectQuery(mkQuery(1, sensordata.SoilMoisture, math.Inf(-1), math.Inf(1)), query.GroundTruth{})
	engine.RunUntil(100)
	if !rec.Received.Has(late) || !rec.Sources.Has(late) {
		t.Fatalf("joined node received=%v source=%v, want both", rec.Received.Has(late), rec.Sources.Has(late))
	}
}

func TestJoinExistingNodeRejected(t *testing.T) {
	tn := buildNet(t, 10, 11, fixedCfg(5))
	if err := tn.proto.JoinNode(3, sensordata.AllTypeSet()); err == nil {
		t.Fatal("joining an attached node accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, radio.Cost) {
		tn := buildNet(t, 20, 99, fixedCfg(5))
		tn.run(200)
		m := tn.channel.Meter()
		// All traffic included to compare full executions, not just
		// update costs.
		return m.ByClass(radio.ClassUpdate).Total(), m.Total()
	}
	u1, s1 := run()
	u2, s2 := run()
	if u1 != u2 || s1 != s2 {
		t.Fatalf("identical seeds diverged: updates %d vs %d, all traffic %+v vs %+v", u1, u2, s1, s2)
	}
	if u1 == 0 {
		t.Fatal("no update traffic in 200 epochs")
	}
}

func TestStartTwicePanicsProtocol(t *testing.T) {
	tn := buildNet(t, 10, 12, fixedCfg(5))
	tn.proto.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	tn.proto.Start()
}

func TestRecordsInInjectionOrder(t *testing.T) {
	tn := buildNet(t, 10, 13, fixedCfg(5))
	tn.run(30)
	ty := sensordata.Temperature
	val := func(id topology.NodeID) float64 { return tn.gen.Value(id, ty) }
	for i := int64(0); i < 5; i++ {
		q := mkQuery(i*7, ty, 0, 50)
		tn.proto.InjectQuery(q, query.Resolve(q, tn.tree, tn.mounted, val))
	}
	recs := tn.proto.Records()
	if len(recs) != 5 {
		t.Fatalf("%d records", len(recs))
	}
	for i, r := range recs {
		if r.Query.ID != int64(i*7) {
			t.Fatalf("records out of order: %v at %d", r.Query.ID, i)
		}
	}
}

func TestOrphanSubtreeDissolvedNoStaleRows(t *testing.T) {
	// Regression: when an internal node dies, its orphaned descendants must
	// drop their old child rows — the children re-attach independently and
	// may land under different parents; keeping rows would leave stale
	// range data (and, if the child later dies while the ex-parent still
	// holds a row, a dead-node row at a live node).
	tn := buildNet(t, 30, 41, fixedCfg(3))
	tn.run(50)

	// Find a grandparent chain: g -> m -> c with m having children.
	var mid topology.NodeID = -1
	for _, id := range tn.tree.Nodes() {
		if id == topology.Root {
			continue
		}
		if par, ok := tn.tree.Parent(id); ok && par != topology.Root &&
			len(tn.tree.Children(id)) > 0 {
			mid = par // kill the middle node's parent to orphan a subtree
			_ = id
			break
		}
	}
	if mid < 0 || mid == topology.Root {
		t.Skip("no suitable chain in this draw")
	}
	subtree := tn.tree.Subtree(mid)
	tn.proto.KillNode(mid)
	tn.run(120) // detection + dissolution + reattachment + re-reports

	// Every live ex-subtree member's tables may only contain rows for its
	// *current* tree children.
	for _, id := range subtree[1:] {
		if !tn.channel.Alive(id) || !tn.tree.Contains(id) {
			continue
		}
		n := tn.proto.Node(id)
		current := map[topology.NodeID]bool{}
		for _, c := range tn.tree.Children(id) {
			current[c] = true
		}
		for _, ty := range sensordata.AllTypes() {
			rt := n.Table(ty)
			if rt == nil {
				continue
			}
			for _, c := range rt.Children() {
				if !current[c] {
					t.Fatalf("node %d holds a %v row for %d which is not its child anymore",
						id, ty, c)
				}
			}
		}
	}
}
