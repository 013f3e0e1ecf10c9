// Package integration runs whole-stack tests that cross module boundaries:
// long simulations with node churn, heavy packet loss, heterogeneous
// sensor complements, and protocol invariants checked against ground truth
// at every stage.
package integration

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/lmac"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/scenario"
	"repro/internal/sensordata"
	"repro/internal/sim"
	"repro/internal/topology"
)

// buildRunner constructs a moderate network for churn experiments.
func buildRunner(t *testing.T, seed uint64, mutate func(*scenario.Config)) *scenario.Runner {
	t.Helper()
	cfg := scenario.Default()
	cfg.Seed = seed
	cfg.NumNodes = 35
	cfg.RadioRange = 32 // dense enough that the k=8/d=10 caps always span
	cfg.Epochs = 4000
	cfg.FixedPct = 3
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// at runs fn at epoch t from a ticker at prio. Registered before Run, it
// runs ahead of the tickers Runner.Start adds at the same priority: at
// lmac.PrioApp+1 that is after the epoch's sensor acquisition and before
// the query injection, at lmac.PrioMetrics before the bucket sample.
func at(r *scenario.Runner, t sim.Time, prio int, fn func()) {
	r.Engine.AddTicker(prio, func() {
		if r.Engine.Now() == t {
			fn()
		}
	})
}

func TestChurnManyDeaths(t *testing.T) {
	r := buildRunner(t, 21, nil)

	// Kill five leaves at staggered times; leaves keep the network
	// connected so accuracy must fully recover.
	leaves := r.Tree.Leaves()
	if len(leaves) < 5 {
		t.Skip("too few leaves in this draw")
	}
	for i := 0; i < 5; i++ {
		victim := leaves[i*len(leaves)/5]
		if victim == topology.Root {
			continue
		}
		at(r, sim.Time(800+400*i), lmac.PrioApp+1, func() { r.Proto.KillNode(victim) })
	}
	res := r.Run()

	if err := r.Tree.Validate(); err != nil {
		t.Fatalf("tree invalid after churn: %v", err)
	}
	// Dead nodes must be out of every surviving range table.
	for _, id := range r.Tree.Nodes() {
		n := r.Proto.Node(id)
		for _, ty := range sensordata.AllTypes() {
			rt := n.Table(ty)
			if rt == nil {
				continue
			}
			for _, c := range rt.Children() {
				if !r.Channel.Alive(c) {
					t.Fatalf("node %d keeps a %v row for dead node %d", id, ty, c)
				}
			}
		}
	}
	// Queries injected after the last death should still deliver; compare
	// late-run accuracy to early-run accuracy.
	third := len(res.Accuracies) / 3
	early := metrics.Summarize(res.Accuracies[:third], r.Graph.Len())
	late := metrics.Summarize(res.Accuracies[2*third:], r.Graph.Len())
	if late.PctReceived == 0 {
		t.Fatal("no deliveries after churn")
	}
	if late.MeanOvershoot > early.MeanOvershoot+15 {
		t.Fatalf("accuracy collapsed after churn: early %v late %v",
			early.MeanOvershoot, late.MeanOvershoot)
	}
}

func TestChurnDeathThenRejoin(t *testing.T) {
	r := buildRunner(t, 22, nil)
	leaves := r.Tree.Leaves()
	victim := leaves[len(leaves)/2]
	if victim == topology.Root {
		t.Skip("degenerate draw")
	}
	mounted := r.Mounted[victim]

	at(r, 1000, lmac.PrioApp+1, func() { r.Proto.KillNode(victim) })
	at(r, 2000, lmac.PrioApp+1, func() {
		if err := r.Proto.JoinNode(victim, mounted); err != nil {
			t.Errorf("rejoin failed: %v", err)
		}
	})
	var back bool
	at(r, 2600, lmac.PrioMetrics, func() {
		back = r.Tree.Contains(victim)
	})
	r.Run()

	if !back {
		t.Fatal("rejoined node not back in the tree by epoch 2600")
	}
	if err := r.Tree.Validate(); err != nil {
		t.Fatalf("tree invalid after rejoin: %v", err)
	}
	// Its parent must have fresh rows for the rejoined node's types.
	par, ok := r.Tree.Parent(victim)
	if !ok {
		t.Fatal("rejoined node has no parent")
	}
	for _, ty := range mounted.Types() {
		rt := r.Proto.Node(par).Table(ty)
		if rt == nil {
			t.Fatalf("parent %d lacks %v table after rejoin", par, ty)
		}
		if _, ok := rt.Child(victim); !ok {
			t.Fatalf("parent %d lacks %v row for rejoined node %d", par, ty, victim)
		}
	}
}

func TestHeavyPacketLossDegradesGracefully(t *testing.T) {
	clean := buildRunner(t, 23, nil).Run()
	lossy := buildRunner(t, 23, func(c *scenario.Config) { c.PacketLoss = 0.15 }).Run()

	if lossy.QueriesInjected != clean.QueriesInjected {
		t.Fatalf("query counts differ: %d vs %d", lossy.QueriesInjected, clean.QueriesInjected)
	}
	// Loss strictly reduces deliveries but must not zero them.
	if lossy.Summary.PctReceived <= 0 {
		t.Fatal("15% loss killed all deliveries")
	}
	if lossy.Summary.PctReceived > clean.Summary.PctReceived+5 {
		t.Fatalf("lossy run delivered MORE than clean run: %v vs %v",
			lossy.Summary.PctReceived, clean.Summary.PctReceived)
	}
}

func TestHeterogeneousTypesRouteOnlyWhereMounted(t *testing.T) {
	r := buildRunner(t, 24, func(c *scenario.Config) {
		c.Heterogeneous = true
		c.TypeProb = 0.4
	})
	r.Proto.Start()
	r.MAC.Start()
	r.Engine.RunUntil(100)

	// For every sensor type: a node may have a table only if the type is
	// mounted somewhere in its subtree (Fig. 4's structural property).
	for _, ty := range sensordata.AllTypes() {
		for _, id := range r.Tree.Nodes() {
			rt := r.Proto.Node(id).Table(ty)
			if rt == nil || rt.Empty() {
				continue
			}
			found := false
			for _, member := range r.Tree.Subtree(id) {
				if r.Mounted[member].Has(ty) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d holds a %v table but no subtree member mounts it", id, ty)
			}
		}
	}

	// A match-everything query for each type must reach every node that
	// mounts it (after warm-up, with δ=3% everything is reported).
	for _, ty := range sensordata.AllTypes() {
		lo, hi := ty.Span()
		q := query.Query{ID: int64(1000 + ty), Type: ty, Lo: lo, Hi: hi}
		truth := query.Resolve(q, r.Tree, r.Mounted,
			func(id topology.NodeID) float64 { return r.Gen.Value(id, ty) })
		rec := r.Proto.InjectQuery(q, truth)
		r.Engine.RunUntil(r.Engine.Now() + 30)
		for _, src := range truth.Sources {
			if !rec.Received.Has(src) {
				t.Fatalf("type %v: mounted node %d missed a match-all query", ty, src)
			}
		}
	}
}

func TestRangeTablesTrackTruthWithinDelta(t *testing.T) {
	// After quiescence on frozen data, every stored aggregate must contain
	// the true subtree value range, inflated by at most depth*2δ slack.
	r := buildRunner(t, 25, func(c *scenario.Config) { c.FixedPct = 4 })
	for _, ty := range sensordata.AllTypes() {
		p := sensordata.DefaultParams(ty)
		p.NoiseSigma = 0
		p.DriftStep = 0
		p.DiurnalAmp = 0
		r.Gen.SetParams(ty, p)
	}
	r.Proto.Start()
	r.MAC.Start()
	r.Engine.RunUntil(120)

	ty := sensordata.Temperature
	deltaUnits := 4.0 / 100 * ty.SpanWidth()
	for _, id := range r.Tree.Nodes() {
		rt := r.Proto.Node(id).Table(ty)
		if rt == nil {
			continue
		}
		for _, c := range rt.Children() {
			stored, _ := rt.Child(c)
			// True range over c's subtree.
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, m := range r.Tree.Subtree(c) {
				if !r.Mounted[m].Has(ty) {
					continue
				}
				v := r.Gen.Value(m, ty)
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			if math.IsInf(lo, 1) {
				continue // no sensors of this type below c
			}
			depth := float64(r.Tree.MaxDepth() + 1)
			slack := deltaUnits * 2 * depth
			if stored.Min > lo+slack || stored.Max < hi-slack {
				t.Fatalf("node %d's row for child %d = [%v,%v] does not cover true [%v,%v] within slack %v",
					id, c, stored.Min, stored.Max, lo, hi, slack)
			}
		}
	}
}

func TestFullRunDirQAlwaysBeatsFloodingPerQuery(t *testing.T) {
	// Not just in aggregate: even adding the run's *entire* update and
	// estimate cost, DirQ must undercut flooding for the default workload.
	r := buildRunner(t, 26, nil)
	res := r.Run()
	dirqTotal := res.QueryCost.Total() + res.UpdateCost.Total() + res.EstimateCost.Total()
	if dirqTotal >= res.FloodCost {
		t.Fatalf("DirQ total %d (incl. estimates) >= flooding %d", dirqTotal, res.FloodCost)
	}
}

func TestSamplingIntegrationWithChurn(t *testing.T) {
	// Predictive sampling and node churn compose.
	r := buildRunner(t, 27, func(c *scenario.Config) {
		c.PredictiveSampling = true
		c.Epochs = 2500
	})
	leaf := r.Tree.Leaves()[0]
	if leaf != topology.Root {
		at(r, 1200, lmac.PrioApp+1, func() { r.Proto.KillNode(leaf) })
	}
	res := r.Run()
	if res.Sampling.SkipFraction() <= 0 {
		t.Fatal("no sampling savings")
	}
	if err := r.Tree.Validate(); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
}

func TestEstimateCostScalesWithTreeNotQueries(t *testing.T) {
	// EHr distribution is hourly: its cost must be independent of the
	// query rate.
	slow := buildRunner(t, 28, func(c *scenario.Config) { c.QueryInterval = 50 }).Run()
	fast := buildRunner(t, 28, func(c *scenario.Config) { c.QueryInterval = 5 }).Run()
	if slow.EstimateCost.Total() != fast.EstimateCost.Total() {
		t.Fatalf("estimate cost varied with query rate: %d vs %d",
			slow.EstimateCost.Total(), fast.EstimateCost.Total())
	}
	if fast.QueryCost.Total() <= slow.QueryCost.Total() {
		t.Fatal("query cost did not grow with query rate")
	}
}

func TestProtocolObserverCountsConsistent(t *testing.T) {
	r := buildRunner(t, 29, nil)
	res := r.Run()
	for i, acc := range res.Accuracies {
		if acc.NumReceived < acc.NumSources-acc.NumMissed {
			t.Fatalf("query %d: received %d < reachable sources", i, acc.NumReceived)
		}
		if acc.NumWrong > acc.NumReceived {
			t.Fatalf("query %d: wrong %d > received %d", i, acc.NumWrong, acc.NumReceived)
		}
	}
	_ = core.Tuple{}
}

// Property: arbitrary interleavings of node deaths and rejoins never break
// the tree invariants, never leave dead-node rows in live range tables,
// and never strand a node that has a live eligible neighbor.
func TestPropertyChurnSequencesKeepInvariants(t *testing.T) {
	f := func(seed uint64, ops []uint8) bool {
		cfg := scenario.Default()
		cfg.Seed = seed
		cfg.NumNodes = 20
		cfg.RadioRange = 40 // dense: reattachment always possible
		cfg.Epochs = 10     // built but driven manually below
		r, err := scenario.Build(cfg)
		if err != nil {
			return true // invalid draw for the caps, not an invariant failure
		}
		r.Proto.Start()
		r.MAC.Start()
		r.Engine.RunUntil(30)

		alive := map[topology.NodeID]bool{}
		for _, id := range r.Tree.Nodes() {
			alive[id] = true
		}
		if len(ops) > 12 {
			ops = ops[:12]
		}
		for _, op := range ops {
			id := topology.NodeID(int(op)%(cfg.NumNodes-1) + 1)
			if alive[id] && op%2 == 0 {
				r.Proto.KillNode(id)
				alive[id] = false
			} else if !alive[id] {
				if err := r.Proto.JoinNode(id, sensordata.AllTypeSet()); err == nil {
					alive[id] = true
				}
			}
			// Let death detection and repairs settle.
			until := r.Engine.Now() + 10
			r.Engine.RunUntil(until)
		}
		r.Engine.RunUntil(r.Engine.Now() + 20)

		if err := r.Tree.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, id := range r.Tree.Nodes() {
			if !r.Channel.Alive(id) {
				t.Logf("seed %d: dead node %d still in tree", seed, id)
				return false
			}
			n := r.Proto.Node(id)
			for _, ty := range sensordata.AllTypes() {
				rt := n.Table(ty)
				if rt == nil {
					continue
				}
				for _, c := range rt.Children() {
					if !r.Channel.Alive(c) {
						t.Logf("seed %d: node %d keeps %v row for dead %d", seed, id, ty, c)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quickCheck(f, 15); err != nil {
		t.Fatal(err)
	}
}

// quickCheck is a tiny wrapper fixing the iteration count.
func quickCheck(f func(uint64, []uint8) bool, n int) error {
	return quick.Check(f, &quick.Config{MaxCount: n})
}
