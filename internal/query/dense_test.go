package query

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sensordata"
	"repro/internal/sim"
	"repro/internal/topology"
)

// closureWorkload is a frozen copy of Workload.Next as it was before the
// width probes read dense candidate readings: every probe re-reads each
// node's value through a closure. TestNextMatchesClosureProbes holds the
// dense version to its queries, ground truth and evaluation count.
type closureWorkload struct {
	target  float64
	rng     *sim.RNG
	nextID  int64
	typeSeq int
	cand    []topology.NodeID
	stamp   []int32
	pass    int32
}

func (w *closureWorkload) Next(gen *sensordata.Generator, tree *topology.Tree,
	mounted []sensordata.TypeSet) (Query, GroundTruth) {

	qt := sensordata.AllTypes()[w.typeSeq%int(sensordata.NumTypes)]
	w.typeSeq++

	value := func(id topology.NodeID) float64 { return gen.Value(id, qt) }

	candidates := w.cand[:0]
	for i := range mounted {
		id := topology.NodeID(i)
		if id != tree.Root() && mounted[i].Has(qt) && tree.Contains(id) {
			candidates = append(candidates, id)
		}
	}
	w.cand = candidates
	q := Query{ID: w.nextID, Type: qt}
	w.nextID++
	if len(candidates) == 0 {
		lo, _ := qt.Span()
		q.Lo, q.Hi = lo, lo
		return q, Resolve(q, tree, mounted, value)
	}
	centre := value(candidates[w.rng.Intn(len(candidates))])

	span := qt.SpanWidth()
	n := tree.Len()
	loW, hiW := 0.0, span
	var best Query
	bestErr := 2.0
	for iter := 0; iter < 24; iter++ {
		mid := (loW + hiW) / 2
		cand := Query{ID: q.ID, Type: qt, Lo: centre - mid, Hi: centre + mid}
		involved := w.count(cand, tree, mounted, value)
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

func (w *closureWorkload) count(q Query, tree *topology.Tree,
	mounted []sensordata.TypeSet, value func(topology.NodeID) float64) int {

	n := len(mounted)
	if cap(w.stamp) < n {
		w.stamp = make([]int32, n)
	}
	stamp := w.stamp[:n]
	w.pass++
	root := tree.Root()
	count := 0
	for i := range mounted {
		id := topology.NodeID(i)
		if id == root || !mounted[i].Has(q.Type) || !tree.Contains(id) {
			continue
		}
		if !q.Matches(value(id)) {
			continue
		}
		for hop := id; hop != root; {
			if stamp[hop] == w.pass {
				break
			}
			stamp[hop] = w.pass
			count++
			p, ok := tree.Parent(hop)
			if !ok {
				break
			}
			hop = p
		}
	}
	return count
}

// TestNextMatchesClosureProbes runs the frozen closure-probe Next and
// today's Next side by side, each on its own generator of the same seed,
// over heterogeneous sensor complements and a tree with a detached
// subtree (so the mount and membership filters both bite). Queries,
// ground truth and the number of field evaluations must agree exactly.
func TestNextMatchesClosureProbes(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	for _, n := range []int{50, 2000} {
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				checkNextAgainstClosure(t, n, uint64(seed))
			})
		}
	}
}

func checkNextAgainstClosure(t *testing.T, n int, seed uint64) {
	rng := sim.NewRNG(seed)
	side := 100 * math.Sqrt(float64(n)/50)
	g, err := topology.PlaceRandom(topology.PlacementConfig{
		N: n, Width: side, Height: side, RadioRange: 25}, rng.Stream("place"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := topology.BuildSpanningTree(g, topology.Root, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	// Cut one subtree loose: its nodes keep their sensors but leave the
	// tree, so neither Next may count them.
	if _, err := tr.Detach(topology.NodeID(1 + rng.Stream("cut").Intn(n-1))); err != nil {
		t.Fatal(err)
	}
	pos := make([]topology.Position, g.Len())
	for i := range pos {
		pos[i] = g.Pos(topology.NodeID(i))
	}
	mounted := sensordata.AssignTypes(n, 0.4, rng.Stream("types"))
	oldGen := sensordata.NewGenerator(pos, rng.Stream("data"))
	newGen := sensordata.NewGenerator(pos, rng.Stream("data"))

	for _, target := range []float64{0.2, 0.4, 0.6} {
		stream := fmt.Sprintf("workload-%v", target)
		old := &closureWorkload{target: target, rng: rng.Stream(stream)}
		w, err := NewWorkload(target, rng.Stream(stream))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			wantQ, wantGT := old.Next(oldGen, tr, mounted)
			gotQ, gotGT := w.Next(newGen, tr, mounted)
			if gotQ != wantQ {
				t.Fatalf("target %v query %d: got %v, want %v", target, k, gotQ, wantQ)
			}
			if !slices.Equal(gotGT.Sources, wantGT.Sources) || !slices.Equal(gotGT.Should.IDs(), wantGT.Should.IDs()) {
				t.Fatalf("target %v query %d: ground truth differs (%d/%d sources, %d/%d should)",
					target, k, len(gotGT.Sources), len(wantGT.Sources), gotGT.Should.Len(), wantGT.Should.Len())
			}
			if got, want := newGen.Evals(), oldGen.Evals(); got != want {
				t.Fatalf("target %v query %d: %d field evaluations, want %d", target, k, got, want)
			}
			for e := 0; e < 3; e++ {
				oldGen.Step()
				newGen.Step()
			}
		}
	}
}

// TestInvolvedMatchesResolve holds the width search's flat count to the
// size of Resolve's Should set, window by window: for centres on every
// kind of reading and half-widths from 0 to twice the span, on random
// trees with detached subtrees, whose readings include values clamped to
// the span's ends (so many tie) and NaN.
func TestInvolvedMatchesResolve(t *testing.T) {
	for _, n := range []int{2, 3, 50, 700} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				checkInvolved(t, n, seed)
			})
		}
	}
}

func checkInvolved(t *testing.T, n int, seed uint64) {
	rng := sim.NewRNG(seed)
	tr := topology.NewTree(topology.Root)
	for i := 1; i < n; i++ {
		if err := tr.Attach(topology.NodeID(rng.Intn(i)), topology.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for cut := 0; cut < 2 && tr.Len() > 2; cut++ {
		nodes := tr.Nodes()
		if _, err := tr.Detach(nodes[1+rng.Intn(len(nodes)-1)]); err != nil {
			t.Fatal(err)
		}
	}
	ty := sensordata.Temperature
	lo, hi := ty.Span()
	span := ty.SpanWidth()
	mounted := sensordata.AssignTypes(n, 0.5, rng.Stream("types"))
	read := make([]float64, n)
	for i := range read {
		switch u := rng.Float64(); {
		case u < 0.1:
			read[i] = lo
		case u < 0.2:
			read[i] = hi
		case u < 0.3:
			read[i] = math.NaN()
		default:
			read[i] = rng.Range(lo, hi)
		}
	}
	value := func(id topology.NodeID) float64 { return read[id] }

	w := &Workload{}
	for i := range mounted {
		id := topology.NodeID(i)
		if id != tr.Root() && mounted[i].Has(ty) && tr.Contains(id) {
			w.cand = append(w.cand, id)
			w.vals = append(w.vals, read[id])
		}
	}
	centres := append([]float64{math.NaN(), lo, hi, (lo + hi) / 2}, w.vals...)
	for _, c := range centres {
		w.bracket(tr, n, c)
		mids := []float64{0, span, 2 * span}
		for k := 1; k <= 24; k++ {
			mids = append(mids, span/float64(uint64(1)<<k), rng.Range(0, span))
		}
		for _, mid := range mids {
			q := Query{Type: ty, Lo: c - mid, Hi: c + mid}
			want := Resolve(q, tr, mounted, value).Should.Len()
			if got := w.involved(q.Lo, q.Hi); got != want {
				t.Fatalf("centre %v, window [%v, %v]: involved %d, Resolve's Should has %d",
					c, q.Lo, q.Hi, got, want)
			}
		}
	}
}

// TestBracketFollowsTreeChanges brackets one tree, moves a subtree under
// a node that was deeper than it, and brackets again with the same
// Workload. The breadth-first order bracket folds bounds in is cached
// across queries; reusing the first call's order would fold the moved
// subtree into its new parent after that parent had already been folded
// into its own, so its ancestors would miss the subtree's readings and
// involved would undercount against Resolve. The tree's generation must
// change with every Attach and Detach for the cache to see the move.
func TestBracketFollowsTreeChanges(t *testing.T) {
	// root 0 ─ 1 ─ 2 ─ 3 ─ 4, and root 0 ─ 5 ─ 6.
	tr := topology.NewTree(topology.Root)
	for _, e := range [][2]topology.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {5, 6}} {
		if err := tr.Attach(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	const n = 7
	ty := sensordata.Temperature
	mounted := sensordata.AssignAllTypes(n)
	read := []float64{0, 30, 30, 30, 30, 10, 10}
	value := func(id topology.NodeID) float64 { return read[id] }
	w := &Workload{}
	check := func(stage string) {
		w.cand, w.vals = w.cand[:0], w.vals[:0]
		for _, id := range tr.Nodes() {
			if id != tr.Root() {
				w.cand = append(w.cand, id)
				w.vals = append(w.vals, read[id])
			}
		}
		w.bracket(tr, n, 10)
		q := Query{Type: ty, Lo: 9, Hi: 11}
		want := Resolve(q, tr, mounted, value).Should.Len()
		if got := w.involved(q.Lo, q.Hi); got != want {
			t.Fatalf("%s: involved %d, Resolve's Should has %d", stage, got, want)
		}
	}
	check("first tree")
	gen := tr.Generation()
	if _, err := tr.Detach(5); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(4, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(5, 6); err != nil {
		t.Fatal(err)
	}
	if tr.Generation() == gen {
		t.Fatal("Detach and Attach left the tree's generation unchanged")
	}
	check("subtree moved under node 4")
}
