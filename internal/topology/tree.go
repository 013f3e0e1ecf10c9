package topology

import (
	"fmt"
)

// Tree is a rooted spanning tree over (a subset of) a Graph's nodes. It is
// the communication structure DirQ maintains range tables over.
//
// All per-node state lives in flat slices indexed by NodeID: Contains,
// Parent and Children sit on per-query hot paths (ground-truth resolution
// walks parent chains; the workload's width search folds bounds up the
// tree once per query), where a slice load beats a map lookup severalfold
// at large N — and a
// 100k-node build pays a handful of slice allocations instead of three
// maps' worth of per-entry churn.
type Tree struct {
	root  NodeID
	count int    // nodes currently attached (root included)
	gen   uint64 // bumped by every Attach and Detach

	inTree    []bool     // membership, grown on demand
	parentArr []NodeID   // parent; -1 = root or detached
	depthArr  []int      // hop distance from root; -1 = detached
	childArr  [][]NodeID // sorted child lists
}

// NewTree returns a tree containing only the root.
func NewTree(root NodeID) *Tree {
	t := &Tree{root: root, count: 1}
	t.ensure(root)
	t.inTree[root] = true
	t.depthArr[root] = 0
	return t
}

// ensure grows the flat mirrors to cover id.
func (t *Tree) ensure(id NodeID) {
	for int(id) >= len(t.inTree) {
		t.inTree = append(t.inTree, false)
		t.parentArr = append(t.parentArr, -1)
		t.depthArr = append(t.depthArr, -1)
		t.childArr = append(t.childArr, nil)
	}
}

// Root returns the root node.
func (t *Tree) Root() NodeID { return t.root }

// Len returns the number of nodes currently in the tree (root included).
func (t *Tree) Len() int { return t.count }

// Generation counts the tree's structural changes: every Attach and
// Detach bumps it, so a caller that cached something derived from the
// tree's shape can tell whether it still holds.
func (t *Tree) Generation() uint64 { return t.gen }

// Contains reports whether id is attached to the tree.
func (t *Tree) Contains(id NodeID) bool {
	return id >= 0 && int(id) < len(t.inTree) && t.inTree[id]
}

// Parent returns the parent of id; ok is false for the root or a node not in
// the tree.
func (t *Tree) Parent(id NodeID) (NodeID, bool) {
	if id < 0 || int(id) >= len(t.parentArr) || t.parentArr[id] < 0 {
		return 0, false
	}
	return t.parentArr[id], true
}

// Children returns the sorted child list of id. The slice must not be
// modified by callers.
func (t *Tree) Children(id NodeID) []NodeID {
	if id < 0 || int(id) >= len(t.childArr) {
		return nil
	}
	return t.childArr[id]
}

// Depth returns the hop distance of id from the root; -1 if not in the tree.
func (t *Tree) Depth(id NodeID) int {
	if id < 0 || int(id) >= len(t.depthArr) {
		return -1
	}
	return t.depthArr[id]
}

// MaxDepth returns the deepest level in the tree (root = 0).
func (t *Tree) MaxDepth() int {
	max := 0
	for id, in := range t.inTree {
		if in && t.depthArr[id] > max {
			max = t.depthArr[id]
		}
	}
	return max
}

// Attach links child under parent. The parent must already be in the tree
// and the child must not be.
func (t *Tree) Attach(parent, child NodeID) error {
	if !t.Contains(parent) {
		return fmt.Errorf("topology: attach under %d which is not in the tree", parent)
	}
	if t.Contains(child) {
		return fmt.Errorf("topology: node %d is already in the tree", child)
	}
	t.ensure(child)
	t.childArr[parent] = insertSorted(t.childArr[parent], child)
	t.inTree[child] = true
	t.parentArr[child] = parent
	t.depthArr[child] = t.depthArr[parent] + 1
	t.count++
	t.gen++
	return nil
}

// Detach removes a leaf or an entire subtree rooted at id from the tree and
// returns the removed node set (in BFS order, id first). Detaching the root
// is an error.
func (t *Tree) Detach(id NodeID) ([]NodeID, error) {
	if id == t.root {
		return nil, fmt.Errorf("topology: cannot detach the root")
	}
	if !t.Contains(id) {
		return nil, fmt.Errorf("topology: node %d is not in the tree", id)
	}
	removed := t.Subtree(id)
	p := t.parentArr[id]
	t.childArr[p] = removeSorted(t.childArr[p], id)
	for _, n := range removed {
		t.inTree[n] = false
		t.parentArr[n] = -1
		t.depthArr[n] = -1
		t.childArr[n] = t.childArr[n][:0]
	}
	t.count -= len(removed)
	t.gen++
	return removed, nil
}

// Subtree returns id and all its descendants in BFS order.
func (t *Tree) Subtree(id NodeID) []NodeID {
	order := []NodeID{id}
	for i := 0; i < len(order); i++ {
		order = append(order, t.Children(order[i])...)
	}
	return order
}

// Nodes returns all tree nodes in ascending ID order.
func (t *Tree) Nodes() []NodeID {
	out := make([]NodeID, 0, t.count)
	for id, in := range t.inTree {
		if in {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Leaves returns all leaf nodes in ascending ID order.
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	for id, in := range t.inTree {
		if in && len(t.childArr[id]) == 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Validate checks the structural invariants: every non-root node has a
// parent in the tree, depths are parent+1, child lists match parent
// pointers, and there are no cycles.
func (t *Tree) Validate() error {
	for i, in := range t.inTree {
		if !in {
			continue
		}
		id := NodeID(i)
		d := t.depthArr[id]
		if id == t.root {
			if d != 0 {
				return fmt.Errorf("topology: root depth %d != 0", d)
			}
			if t.parentArr[id] >= 0 {
				return fmt.Errorf("topology: root has a parent")
			}
			continue
		}
		p := t.parentArr[id]
		if p < 0 {
			return fmt.Errorf("topology: node %d has no parent", id)
		}
		if !t.Contains(p) {
			return fmt.Errorf("topology: node %d's parent %d is not in the tree", id, p)
		}
		if d != t.depthArr[p]+1 {
			return fmt.Errorf("topology: node %d depth %d != parent depth %d + 1", id, d, t.depthArr[p])
		}
		found := false
		for _, c := range t.childArr[p] {
			if c == id {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("topology: node %d missing from parent %d's child list", id, p)
		}
	}
	// Cycle / reachability: BFS from root must reach exactly count nodes.
	if got := len(t.Subtree(t.root)); got != t.count {
		return fmt.Errorf("topology: %d nodes reachable from root, %d registered", got, t.count)
	}
	return nil
}

// BuildSpanningTree constructs a BFS spanning tree of g rooted at root with
// a fan-out cap (maximum children per node) and a depth cap. A node is
// attached to the shallowest already-attached radio neighbor that still has
// child capacity; ties break on smallest parent ID for determinism. Returns
// an error if the caps make full coverage impossible on this graph.
func BuildSpanningTree(g *Graph, root NodeID, maxFanout, maxDepth int) (*Tree, error) {
	if maxFanout < 1 {
		return nil, fmt.Errorf("topology: fan-out cap %d < 1", maxFanout)
	}
	if maxDepth < 1 {
		return nil, fmt.Errorf("topology: depth cap %d < 1", maxDepth)
	}
	t := NewTree(root)
	t.ensure(NodeID(g.Len() - 1))
	frontier := []NodeID{root}
	for len(frontier) > 0 {
		var next []NodeID
		for _, p := range frontier {
			if t.Depth(p) >= maxDepth {
				continue
			}
			for _, nb := range g.Neighbors(p) {
				if t.Contains(nb) || len(t.childArr[p]) >= maxFanout {
					continue
				}
				if err := t.Attach(p, nb); err != nil {
					return nil, err
				}
				next = append(next, nb)
			}
		}
		frontier = next
	}
	if t.Len() != g.Len() {
		return nil, fmt.Errorf("topology: spanning tree covers %d of %d nodes (fanout=%d depth=%d too tight)",
			t.Len(), g.Len(), maxFanout, maxDepth)
	}
	return t, nil
}
