package topology

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func buildTestTree(t *testing.T, seed uint64, n int) (*Graph, *Tree) {
	t.Helper()
	rng := sim.NewRNG(seed)
	g, err := PlaceRandom(PlacementConfig{N: n, Width: 120, Height: 120, RadioRange: 25}, rng)
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	tree, err := BuildSpanningTree(g, Root, 6, 40)
	if err != nil {
		t.Fatalf("spanning tree: %v", err)
	}
	return g, tree
}

// TestPartitionSubtreesPure pins the partition as a pure function of
// (topology, K): repeated calls agree, and an independently rebuilt
// identical tree partitions identically.
func TestPartitionSubtreesPure(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		_, tree := buildTestTree(t, seed, 80)
		for _, k := range []int{1, 2, 4, 7} {
			a := PartitionSubtrees(tree, 80, k)
			b := PartitionSubtrees(tree, 80, k)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d k=%d: repeated partition differs", seed, k)
			}
			_, tree2 := buildTestTree(t, seed, 80)
			c := PartitionSubtrees(tree2, 80, k)
			if !reflect.DeepEqual(a, c) {
				t.Fatalf("seed %d k=%d: rebuilt-tree partition differs", seed, k)
			}
		}
	}
}

// TestPartitionSubtreesInvariants checks the structural contract: the
// root on shard 0, every index in range, non-tree nodes at id %% k, and
// no shard left empty on a tree big enough to feed all of them.
func TestPartitionSubtreesInvariants(t *testing.T) {
	const n = 120
	_, tree := buildTestTree(t, 42, n)
	for _, k := range []int{2, 3, 4, 7} {
		assign := PartitionSubtrees(tree, n+10, k) // 10 ids beyond the tree
		if len(assign) != n+10 {
			t.Fatalf("k=%d: len %d, want %d", k, len(assign), n+10)
		}
		if assign[Root] != 0 {
			t.Fatalf("k=%d: root on shard %d, want 0", k, assign[Root])
		}
		seen := make([]int, k)
		for id, s := range assign {
			if s < 0 || int(s) >= k {
				t.Fatalf("k=%d: node %d on out-of-range shard %d", k, id, s)
			}
			if id >= n {
				if int(s) != id%k {
					t.Fatalf("k=%d: non-tree node %d on shard %d, want %d", k, id, s, id%k)
				}
				continue
			}
			seen[s]++
		}
		for s, c := range seen {
			if c == 0 {
				t.Fatalf("k=%d: shard %d empty (loads %v)", k, s, seen)
			}
		}
	}
}

// TestPartitionSubtreesKeepsParentsClose checks the subtree property:
// any node whose parent is not the root shares its parent's shard,
// unless the node roots its own unit — in which case its whole unit
// moved together, which we approximate by checking each child of a
// differently-sharded node heads a subtree (has its own descendants
// entirely in its shard).
func TestPartitionSubtreesKeepsParentsClose(t *testing.T) {
	const n = 150
	_, tree := buildTestTree(t, 11, n)
	for _, k := range []int{2, 4} {
		assign := PartitionSubtrees(tree, n, k)
		for id := 0; id < n; id++ {
			nid := NodeID(id)
			if !tree.Contains(nid) || nid == Root {
				continue
			}
			p, _ := tree.Parent(nid)
			if assign[id] == assign[p] {
				continue
			}
			// A shard boundary: id must be a unit root, so every
			// descendant of id either shares id's shard or heads its own
			// deeper boundary. At minimum, leaves under id that hit no
			// further boundary must match some shard consistently — check
			// the weaker invariant that id's unit is non-empty and
			// self-consistent via its first child chain.
			for _, c := range tree.Children(nid) {
				sub := tree.Subtree(c)
				first := assign[sub[0]]
				consistent := true
				for _, d := range sub {
					if assign[d] != first {
						consistent = false
						break
					}
				}
				if !consistent {
					// c's subtree itself is split further; that is legal
					// only when c's own children were re-queued, i.e. c
					// has children.
					if len(tree.Children(c)) == 0 {
						t.Fatalf("k=%d: leaf %d split from its subtree", k, c)
					}
				}
			}
		}
	}
}

// TestPartitionSubtreesBalance sanity-checks the LPT packing: no shard
// should hold more than ~2x its fair share on a well-branched tree.
func TestPartitionSubtreesBalance(t *testing.T) {
	const n = 400
	_, tree := buildTestTree(t, 5, n)
	for _, k := range []int{2, 4} {
		assign := PartitionSubtrees(tree, n, k)
		load := make([]int, k)
		for id := 0; id < n; id++ {
			if tree.Contains(NodeID(id)) {
				load[assign[id]]++
			}
		}
		fair := float64(tree.Len()) / float64(k)
		for s, c := range load {
			if float64(c) > math.Ceil(fair*2)+1 {
				t.Fatalf("k=%d: shard %d holds %d nodes, fair share %.1f (loads %v)",
					k, s, c, fair, load)
			}
		}
	}
}

// TestConnectUnitDiskMatchesBruteForce pins the grid-bucket
// implementation to the all-pairs definition across random layouts,
// including ones with negative and offset coordinates: the grid is
// measured from the layout's min corner, not from the origin.
func TestConnectUnitDiskMatchesBruteForce(t *testing.T) {
	bruteForce := func(pos []Position, r float64) *Graph {
		g := NewGraph(pos)
		for a := range pos {
			for b := a + 1; b < len(pos); b++ {
				if pos[a].Dist(pos[b]) <= r {
					if err := g.AddEdge(NodeID(a), NodeID(b)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return g
	}
	check := func(name string, pos []Position, r float64) {
		t.Helper()
		fast := NewGraph(pos)
		fast.ConnectUnitDisk(r)
		if !reflect.DeepEqual(fast.adj, bruteForce(pos, r).adj) {
			t.Fatalf("%s r=%v: grid-bucket adjacency differs from brute force", name, r)
		}
	}
	// Straddles the origin; bucketing from 0 indexed cell -3 and panicked.
	check("negative", []Position{{-30, 0}, {-10, 0}, {5, 0}, {-60, -60}, {-50, -60}}, 25)
	layouts := []struct {
		name   string
		lo, hi float64
	}{
		{"positive", 0, 150},
		{"negative", -150, 0},
		{"straddling", -75, 75},
		{"offset", 1e4, 1e4 + 150},
	}
	for _, l := range layouts {
		for _, seed := range []uint64{3, 17, 2026} {
			rng := sim.NewRNG(seed)
			const n = 300
			pos := make([]Position, n)
			for i := range pos {
				pos[i] = Position{X: rng.Range(l.lo, l.hi), Y: rng.Range(l.lo, l.hi)}
			}
			for _, r := range []float64{5, 22, 80} {
				check(fmt.Sprintf("%s seed %d", l.name, seed), pos, r)
			}
		}
	}
}
