package query

import (
	"fmt"
	"math"

	"repro/internal/sensordata"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Query is a one-shot range query over one sensor type.
type Query struct {
	ID   int64
	Type sensordata.Type
	Lo   float64
	Hi   float64
}

// Matches reports whether a sensor value satisfies the query range.
func (q Query) Matches(v float64) bool { return v >= q.Lo && v <= q.Hi }

// String renders the query in the paper's style.
func (q Query) String() string {
	return fmt.Sprintf("q%d: %s in [%.2f, %.2f]", q.ID, q.Type, q.Lo, q.Hi)
}

// GroundTruth captures which nodes are relevant to a query given perfectly
// fresh information: the source nodes (mounted sensor of the right type,
// current reading inside the range) and the full "should receive" set —
// sources plus every intermediate forwarding node on the tree paths from
// the root to the sources (§7.1's definition). The root itself, being the
// injector, is in neither set.
type GroundTruth struct {
	Sources []topology.NodeID
	Should  NodeSet
}

// InvolvedFraction returns |Should| / (N-1): the fraction of non-root nodes
// involved in servicing the query — the paper's "percentage of nodes
// involved in responding to a query".
func (gt GroundTruth) InvolvedFraction(n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(gt.Should.Len()) / float64(n-1)
}

// Resolve computes the ground truth of q over the current data. mounted
// reports each node's sensor complement; value returns the node's current
// true reading for the query's type.
func Resolve(q Query, tree *topology.Tree, mounted []sensordata.TypeSet,
	value func(topology.NodeID) float64) GroundTruth {

	return resolve(q, tree, mounted, value, nil)
}

// resolve is Resolve over the nodes that also pass in (all nodes when in
// is nil); in is asked before value.
func resolve(q Query, tree *topology.Tree, mounted []sensordata.TypeSet,
	value func(topology.NodeID) float64, in func(topology.NodeID) bool) GroundTruth {

	gt := GroundTruth{Should: NewNodeSet(len(mounted))}
	root := tree.Root()
	for i := range mounted {
		id := topology.NodeID(i)
		if id == root || !mounted[i].Has(q.Type) || !tree.Contains(id) {
			continue
		}
		if (in == nil || in(id)) && q.Matches(value(id)) {
			gt.Sources = append(gt.Sources, id)
			addPath(&gt.Should, tree, id)
		}
	}
	return gt
}

// addPath adds id and its ancestors below the root to set. Paths to the
// root share their suffix, so the walk stops at the first hop already in
// the set: its ancestors are too.
func addPath(set *NodeSet, tree *topology.Tree, id topology.NodeID) {
	root := tree.Root()
	for hop := id; hop != root && !set.Has(hop); {
		set.Add(hop)
		p, ok := tree.Parent(hop)
		if !ok {
			break
		}
		hop = p
	}
}

// Workload generates random range queries whose ground-truth involvement is
// as close as possible to a target fraction of the network (§7: "Random
// queries which covered 20%, 40% and 60% of the nodes"). The value window
// is centred on a randomly chosen live node's current reading and its width
// is binary-searched: involvement grows monotonically with width.
type Workload struct {
	target  float64
	rng     *sim.RNG
	nextID  int64
	typeSeq int

	// Reusable scratch for Next: candidate centre nodes, their readings
	// (parallel to cand), the tree in breadth-first order, and each node's
	// subtree bounds around the window centre (see bracket). order is
	// that of orderOf at generation orderGen, and is rebuilt only when
	// the tree has changed since.
	cand     []topology.NodeID
	vals     []float64
	order    []topology.NodeID
	orderOf  *topology.Tree
	orderGen uint64
	up, dn   []float64
}

// NewWorkload creates a workload generator targeting the given involved-
// node fraction (0 < target <= 1).
func NewWorkload(target float64, rng *sim.RNG) (*Workload, error) {
	if target <= 0 || target > 1 {
		return nil, fmt.Errorf("query: target coverage %v outside (0,1]", target)
	}
	return &Workload{target: target, rng: rng}, nil
}

// SetTarget retargets the involvement fraction mid-stream (scripted
// selectivity changes). Queries generated after the call aim for the new
// fraction; the RNG stream is untouched, so the change is deterministic
// when applied at a fixed point of the query sequence.
func (w *Workload) SetTarget(target float64) error {
	if target <= 0 || target > 1 {
		return fmt.Errorf("query: target coverage %v outside (0,1]", target)
	}
	w.target = target
	return nil
}

// Next produces the next query against the current state of the dataset.
// Sensor types rotate round-robin so all four types are exercised. The
// returned ground truth is the query's at generation time.
func (w *Workload) Next(gen *sensordata.Generator, tree *topology.Tree,
	mounted []sensordata.TypeSet) (Query, GroundTruth) {

	qt := sensordata.AllTypes()[w.typeSeq%int(sensordata.NumTypes)]
	w.typeSeq++

	value := func(id topology.NodeID) float64 { return gen.Value(id, qt) }

	// The candidates are exactly the nodes a probe tests: non-root tree
	// members that mount this type. Each is read once, here, after one
	// batched evaluation of the stale ones, and every probe scans the
	// readings; the window is centred on a random one.
	candidates := w.cand[:0]
	for i := range mounted {
		id := topology.NodeID(i)
		if id != tree.Root() && mounted[i].Has(qt) && tree.Contains(id) {
			candidates = append(candidates, id)
		}
	}
	w.cand = candidates
	if cap(w.vals) < len(candidates) {
		w.vals = make([]float64, len(candidates))
	}
	w.vals = w.vals[:len(candidates)]
	gen.EvalNodes(qt, candidates)
	for k, id := range candidates {
		w.vals[k] = value(id)
	}
	q := Query{ID: w.nextID, Type: qt}
	w.nextID++
	if len(candidates) == 0 {
		// No node carries this type: emit an unsatisfiable query.
		lo, _ := qt.Span()
		q.Lo, q.Hi = lo, lo
		return q, Resolve(q, tree, mounted, value)
	}
	centre := w.vals[w.rng.Intn(len(candidates))]
	w.bracket(tree, len(mounted), centre)

	// Binary search the half-width for the target involvement. The probes
	// only need the involved-node count, which one flat pass over the
	// bracketed bounds gives; the winning query is fully resolved once at
	// the end.
	span := qt.SpanWidth()
	n := tree.Len()
	loW, hiW := 0.0, span
	var best Query
	bestErr := 2.0
	for iter := 0; iter < 24; iter++ {
		mid := (loW + hiW) / 2
		cand := Query{ID: q.ID, Type: qt, Lo: centre - mid, Hi: centre + mid}
		involved := w.involved(cand.Lo, cand.Hi)
		frac := 0.0
		if n > 1 {
			frac = float64(involved) / float64(n-1)
		}
		if e := abs(frac - w.target); e < bestErr {
			bestErr = e
			best = cand
		}
		if frac < w.target {
			loW = mid
		} else {
			hiW = mid
		}
	}
	return best, Resolve(best, tree, mounted, value)
}

// bracket prepares the width search's probes for windows centred on c.
// For every non-root tree node it keeps two bounds over the candidate
// readings in its subtree: up, the smallest reading >= c (+Inf if none),
// and dn, the largest reading < c (-Inf if none). A NaN reading falls in
// neither bucket, as Matches rejects it too. The root and nodes outside
// the tree keep both sentinels. n is the network size.
func (w *Workload) bracket(tree *topology.Tree, n int, c float64) {
	if cap(w.up) < n {
		w.up, w.dn = make([]float64, n), make([]float64, n)
	}
	up, dn := w.up[:n], w.dn[:n]
	w.up, w.dn = up, dn
	inf := math.Inf(1)
	for i := range up {
		up[i], dn[i] = inf, -inf
	}
	for k, v := range w.vals {
		switch id := w.cand[k]; {
		case v >= c:
			up[id] = v
		case v < c:
			dn[id] = v
		}
	}
	// Fold each node's bounds into its parent's, deepest nodes first: in
	// reverse breadth-first order every child comes before its parent.
	root := tree.Root()
	order := w.treeOrder(tree)
	for i := len(order) - 1; i > 0; i-- {
		id := order[i]
		if p, _ := tree.Parent(id); p != root {
			up[p] = min(up[p], up[id])
			dn[p] = max(dn[p], dn[id])
		}
	}
}

// treeOrder returns the tree's nodes in breadth-first order, root first.
// The order is cached and rebuilt only when the tree, or its generation,
// differs from the last call's.
func (w *Workload) treeOrder(tree *topology.Tree) []topology.NodeID {
	if w.orderOf == tree && w.orderGen == tree.Generation() {
		return w.order
	}
	order := append(w.order[:0], tree.Root())
	for i := 0; i < len(order); i++ {
		order = append(order, tree.Children(order[i])...)
	}
	w.order, w.orderOf, w.orderGen = order, tree, tree.Generation()
	return order
}

// involved returns what Resolve(q, ...).Should.Len() would be for a window
// [lo, hi] around the centre c that bracket was given: the number of
// non-root tree nodes with a matching candidate in their subtree.
// lo = c - mid <= c <= c + mid = hi holds in floating point for mid >= 0,
// so a reading >= c matches iff it is <= hi and a reading < c iff it is
// >= lo: a subtree holds a match iff up <= hi or dn >= lo. Readings are
// the Generator's, clamped to the type's span or NaN, so for a finite
// centre lo and hi are finite and no sentinel counts; a NaN centre counts
// nothing, as no reading matches a NaN window.
func (w *Workload) involved(lo, hi float64) int {
	count := 0
	dn := w.dn[:len(w.up)]
	for i, u := range w.up {
		// Two ifs rather than ||, so the count compiles to conditional
		// moves: the bounds are in node order, which no branch predicts.
		in := 0
		if u <= hi {
			in = 1
		}
		if dn[i] >= lo {
			in = 1
		}
		count += in
	}
	return count
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Predictor forecasts the number of queries in the next hour from history,
// standing in for the paper's web-server-style access predictor [10]. It is
// an EWMA over completed hours with a configurable smoothing factor.
type Predictor struct {
	alpha    float64
	estimate float64
	seeded   bool
	current  int
}

// NewPredictor returns a predictor with smoothing factor alpha in (0, 1].
func NewPredictor(alpha float64) (*Predictor, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("query: predictor alpha %v outside (0,1]", alpha)
	}
	return &Predictor{alpha: alpha}, nil
}

// Observe records one injected query in the current hour.
func (p *Predictor) Observe() { p.current++ }

// EndHour closes the current hour and folds its count into the forecast.
func (p *Predictor) EndHour() {
	c := float64(p.current)
	p.current = 0
	if !p.seeded {
		p.seeded = true
		p.estimate = c
		return
	}
	p.estimate = (1-p.alpha)*p.estimate + p.alpha*c
}

// PredictNextHour returns the forecast query count for the next hour,
// rounded to the nearest integer and never negative. Before any completed
// hour the forecast is zero.
func (p *Predictor) PredictNextHour() int {
	if p.estimate < 0 {
		return 0
	}
	return int(p.estimate + 0.5)
}

// ResolveGeo computes the ground truth of a location-constrained query:
// sources must additionally lie inside rect. The forwarding closure is the
// tree paths to those sources, as for plain queries.
func ResolveGeo(q Query, rect topology.Rect, tree *topology.Tree,
	mounted []sensordata.TypeSet, value func(topology.NodeID) float64,
	pos func(topology.NodeID) topology.Position) GroundTruth {

	return resolve(q, tree, mounted, value, func(id topology.NodeID) bool {
		return rect.Contains(pos(id))
	})
}
