package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func buildSimpleTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree(0)
	attach := func(p, c NodeID) {
		t.Helper()
		if err := tr.Attach(p, c); err != nil {
			t.Fatalf("Attach(%d,%d): %v", p, c, err)
		}
	}
	//        0
	//      / | \
	//     1  2  3
	//    / \     \
	//   4   5     6
	attach(0, 1)
	attach(0, 2)
	attach(0, 3)
	attach(1, 4)
	attach(1, 5)
	attach(3, 6)
	return tr
}

func TestTreeBasics(t *testing.T) {
	tr := buildSimpleTree(t)
	if tr.Root() != 0 {
		t.Fatalf("Root = %d", tr.Root())
	}
	if tr.Len() != 7 {
		t.Fatalf("Len = %d, want 7", tr.Len())
	}
	if d := tr.Depth(4); d != 2 {
		t.Fatalf("Depth(4) = %d, want 2", d)
	}
	if d := tr.Depth(99); d != -1 {
		t.Fatalf("Depth of absent node = %d, want -1", d)
	}
	if tr.MaxDepth() != 2 {
		t.Fatalf("MaxDepth = %d, want 2", tr.MaxDepth())
	}
	if p, ok := tr.Parent(6); !ok || p != 3 {
		t.Fatalf("Parent(6) = %d,%v want 3,true", p, ok)
	}
	if _, ok := tr.Parent(0); ok {
		t.Fatal("root has a parent")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestTreeChildrenSorted(t *testing.T) {
	tr := NewTree(0)
	for _, c := range []NodeID{5, 2, 9, 1} {
		if err := tr.Attach(0, c); err != nil {
			t.Fatal(err)
		}
	}
	ch := tr.Children(0)
	for i := 1; i < len(ch); i++ {
		if ch[i-1] >= ch[i] {
			t.Fatalf("children not sorted: %v", ch)
		}
	}
}

func TestAttachErrors(t *testing.T) {
	tr := buildSimpleTree(t)
	if err := tr.Attach(42, 7); err == nil {
		t.Fatal("attach under absent parent accepted")
	}
	if err := tr.Attach(0, 4); err == nil {
		t.Fatal("re-attaching an existing node accepted")
	}
}

func TestDetachLeaf(t *testing.T) {
	tr := buildSimpleTree(t)
	removed, err := tr.Detach(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != 6 {
		t.Fatalf("removed %v, want [6]", removed)
	}
	if tr.Contains(6) {
		t.Fatal("detached node still present")
	}
	if len(tr.Children(3)) != 0 {
		t.Fatal("parent still lists detached child")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after detach: %v", err)
	}
}

func TestDetachSubtree(t *testing.T) {
	tr := buildSimpleTree(t)
	removed, err := tr.Detach(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 {
		t.Fatalf("removed %v, want nodes 1,4,5", removed)
	}
	if removed[0] != 1 {
		t.Fatalf("subtree root should be first in removal order, got %v", removed)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len after subtree detach = %d, want 4", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDetachErrors(t *testing.T) {
	tr := buildSimpleTree(t)
	if _, err := tr.Detach(0); err == nil {
		t.Fatal("detaching root accepted")
	}
	if _, err := tr.Detach(42); err == nil {
		t.Fatal("detaching absent node accepted")
	}
}

func TestLeaves(t *testing.T) {
	tr := buildSimpleTree(t)
	leaves := tr.Leaves()
	want := map[NodeID]bool{2: true, 4: true, 5: true, 6: true}
	if len(leaves) != len(want) {
		t.Fatalf("Leaves = %v", leaves)
	}
	for _, l := range leaves {
		if !want[l] {
			t.Fatalf("unexpected leaf %d", l)
		}
	}
}

func TestBuildSpanningTreeOnGrid(t *testing.T) {
	g, err := PlaceGrid(5, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BuildSpanningTree(g, Root, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != g.Len() {
		t.Fatalf("tree covers %d of %d nodes", tr.Len(), g.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Every tree edge must be a radio edge.
	for _, id := range tr.Nodes() {
		if p, ok := tr.Parent(id); ok && !g.HasEdge(id, p) {
			t.Fatalf("tree edge (%d,%d) is not a radio link", id, p)
		}
	}
}

func TestBuildSpanningTreeRespectsFanout(t *testing.T) {
	// Star graph: root connected to 9 others; fanout 3 and depth 1 cannot
	// cover it, fanout 9 can.
	g := NewGraph(make([]Position, 10))
	for i := 1; i < 10; i++ {
		mustEdge(t, g, 0, NodeID(i))
	}
	if _, err := BuildSpanningTree(g, Root, 3, 1); err == nil {
		t.Fatal("impossible caps accepted")
	}
	tr, err := BuildSpanningTree(g, Root, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Children(0)) != 9 {
		t.Fatalf("root children %d, want 9", len(tr.Children(0)))
	}
}

func TestBuildSpanningTreeRespectsDepth(t *testing.T) {
	g, err := PlaceLine(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSpanningTree(g, Root, 8, 3); err == nil {
		t.Fatal("line of depth 5 covered with depth cap 3")
	}
	tr, err := BuildSpanningTree(g, Root, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxDepth() != 5 {
		t.Fatalf("MaxDepth = %d, want 5", tr.MaxDepth())
	}
}

func TestBuildSpanningTreeBadParams(t *testing.T) {
	g, _ := PlaceLine(3, 1)
	if _, err := BuildSpanningTree(g, Root, 0, 5); err == nil {
		t.Fatal("fanout 0 accepted")
	}
	if _, err := BuildSpanningTree(g, Root, 5, 0); err == nil {
		t.Fatal("depth 0 accepted")
	}
}

// Property: spanning trees over random connected graphs always satisfy the
// structural invariants and honor the caps.
func TestPropertySpanningTreeInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		cfg := PlacementConfig{N: 30, Width: 80, Height: 80, RadioRange: 30}
		g, err := PlaceRandom(cfg, rng)
		if err != nil {
			return false
		}
		tr, err := BuildSpanningTree(g, Root, 8, 10)
		if err != nil {
			// Caps can be too tight for some draws; that is a clean error,
			// not an invariant violation.
			return true
		}
		if tr.Validate() != nil || tr.Len() != g.Len() {
			return false
		}
		for _, id := range tr.Nodes() {
			if len(tr.Children(id)) > 8 || tr.Depth(id) > 10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
