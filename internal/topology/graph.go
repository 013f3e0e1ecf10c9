package topology

import (
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node. The root of the network is always node 0.
type NodeID int

// Root is the NodeID of the sink / root node.
const Root NodeID = 0

// Position is a 2-D coordinate in the deployment area (arbitrary units,
// typically metres).
type Position struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two positions.
func (p Position) Dist(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Graph is an undirected radio-connectivity graph over a fixed node set.
// Nodes are dense IDs 0..N-1. Edges are stored as sorted adjacency lists so
// iteration order (and thus every simulation) is deterministic.
type Graph struct {
	pos []Position
	adj [][]NodeID
}

// NewGraph creates a graph with the given node positions and no edges.
func NewGraph(pos []Position) *Graph {
	g := &Graph{
		pos: append([]Position(nil), pos...),
		adj: make([][]NodeID, len(pos)),
	}
	return g
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.pos) }

// Pos returns the position of node id.
func (g *Graph) Pos(id NodeID) Position { return g.pos[id] }

// AddEdge inserts the undirected edge (a, b). Self-loops and duplicates are
// rejected with an error.
func (g *Graph) AddEdge(a, b NodeID) error {
	if a == b {
		return fmt.Errorf("topology: self-loop on node %d", a)
	}
	if int(a) < 0 || int(a) >= len(g.pos) || int(b) < 0 || int(b) >= len(g.pos) {
		return fmt.Errorf("topology: edge (%d,%d) out of range [0,%d)", a, b, len(g.pos))
	}
	if g.HasEdge(a, b) {
		return fmt.Errorf("topology: duplicate edge (%d,%d)", a, b)
	}
	g.adj[a] = insertSorted(g.adj[a], b)
	g.adj[b] = insertSorted(g.adj[b], a)
	return nil
}

func insertSorted(s []NodeID, v NodeID) []NodeID {
	i, _ := slices.BinarySearch(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// HasEdge reports whether (a, b) is an edge.
func (g *Graph) HasEdge(a, b NodeID) bool {
	_, ok := slices.BinarySearch(g.adj[a], b)
	return ok
}

// Neighbors returns the sorted neighbor list of id. The returned slice must
// not be modified.
func (g *Graph) Neighbors(id NodeID) []NodeID { return g.adj[id] }

// Degree returns the number of neighbors of id.
func (g *Graph) Degree(id NodeID) int { return len(g.adj[id]) }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Connected reports whether every node is reachable from the root.
func (g *Graph) Connected() bool {
	if len(g.pos) == 0 {
		return true
	}
	return len(g.ReachableFrom(Root)) == len(g.pos)
}

// ReachableFrom returns the set of nodes reachable from start (inclusive)
// via BFS, in visit order.
func (g *Graph) ReachableFrom(start NodeID) []NodeID {
	seen := make([]bool, len(g.pos))
	seen[start] = true
	order := []NodeID{start}
	for i := 0; i < len(order); i++ {
		for _, nb := range g.adj[order[i]] {
			if !seen[nb] {
				seen[nb] = true
				order = append(order, nb)
			}
		}
	}
	return order
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.pos)
	for i, a := range g.adj {
		c.adj[i] = append([]NodeID(nil), a...)
	}
	return c
}

// RemoveNodeEdges detaches a node from the graph by deleting all its edges
// (the node itself stays, as dead sensors physically remain in place).
func (g *Graph) RemoveNodeEdges(id NodeID) {
	for _, nb := range g.adj[id] {
		g.adj[nb] = removeSorted(g.adj[nb], id)
	}
	g.adj[id] = nil
}

func removeSorted(s []NodeID, v NodeID) []NodeID {
	if i, ok := slices.BinarySearch(s, v); ok {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// cellGrid counting-sorts positions into square cells of side ≥ r,
// measured from the positions' min corner, so every node within r of a
// position lies in the 3×3 cell neighborhood of that position's cell. Each
// cell's node list is ascending. Its buffers are reused across bucket
// calls, so a caller that buckets many layouts allocates only when a
// layout needs more cells than any before it.
type cellGrid struct {
	minX, minY, cs float64
	cols, rows     int
	start          []int32 // cell c holds nodes[start[c]:start[c+1]]
	nodes          []int32
	cellOf         []int32
}

// bucket sorts pos into the grid for radius r. pos must be non-empty.
func (gr *cellGrid) bucket(pos []Position, r float64) {
	n := len(pos)
	minX, minY, maxX, maxY := pos[0].X, pos[0].Y, pos[0].X, pos[0].Y
	for _, p := range pos[1:] {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	w, h := maxX-minX, maxY-minY
	// Cell side ≥ r keeps the 3×3 neighborhood sufficient; the floor keeps
	// the cell count O(N) even when r is tiny relative to the area.
	cs := r
	if cells := (w/cs + 1) * (h/cs + 1); cells > float64(4*n+64) {
		cs = math.Sqrt((w + 1) * (h + 1) / float64(4*n+64))
		if cs < r {
			cs = r
		}
	}
	gr.minX, gr.minY, gr.cs = minX, minY, cs
	gr.cols, gr.rows = int(w/cs)+1, int(h/cs)+1
	ncells := gr.cols * gr.rows
	gr.start = resizeInt32(gr.start, ncells+1)
	clear(gr.start)
	gr.cellOf = resizeInt32(gr.cellOf, n)
	for i, p := range pos {
		x, y := gr.cellXY(p)
		c := int32(y*gr.cols + x)
		gr.cellOf[i] = c
		gr.start[c+1]++
	}
	for c := 1; c <= ncells; c++ {
		gr.start[c] += gr.start[c-1]
	}
	// Fill with start[c] as cell c's cursor (ascending i keeps each list
	// sorted); the cursors end one cell ahead, so shift them back.
	gr.nodes = resizeInt32(gr.nodes, n)
	for i, c := range gr.cellOf {
		gr.nodes[gr.start[c]] = int32(i)
		gr.start[c]++
	}
	copy(gr.start[1:], gr.start[:ncells])
	gr.start[0] = 0
}

// cellXY returns the column and row of the cell holding p.
func (gr *cellGrid) cellXY(p Position) (x, y int) {
	return int((p.X - gr.minX) / gr.cs), int((p.Y - gr.minY) / gr.cs)
}

// cell returns the nodes of the cell at column x, row y, or nil outside
// the grid.
func (gr *cellGrid) cell(x, y int) []int32 {
	if x < 0 || x >= gr.cols || y < 0 || y >= gr.rows {
		return nil
	}
	c := y*gr.cols + x
	return gr.nodes[gr.start[c]:gr.start[c+1]]
}

// hasNeighbor reports whether some node other than a lies within r of
// it, by the same Dist(...) <= r test ConnectUnitDisk uses: it is false
// exactly when ConnectUnitDisk(r) would leave a with no edges. pos must
// be the layout last bucketed with r.
func (gr *cellGrid) hasNeighbor(pos []Position, a int, r float64) bool {
	pa := pos[a]
	cx, cy := gr.cellXY(pa)
	for y := cy - 1; y <= cy+1; y++ {
		for x := cx - 1; x <= cx+1; x++ {
			for _, b := range gr.cell(x, y) {
				if int(b) != a && pa.Dist(pos[b]) <= r {
					return true
				}
			}
		}
	}
	return false
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// ConnectUnitDisk adds an edge between every pair of nodes within radio
// range r of each other. Nodes are counting-sorted into grid cells of
// side ≥ r (cellGrid, measured from the layout's min corner, so any
// coordinates work) so each node only examines its 3×3 cell neighborhood —
// O(N + edges) for bounded densities instead of the all-pairs O(N²),
// which is what makes 100k-node placement tractable. The adjacency is
// built CSR-style in two passes (count degrees, then fill one shared
// edge arena) so the whole build costs a handful of allocations rather
// than per-row sorted inserts; every row is sliced out of the arena with
// its own capacity, so later AddEdge/RemoveNodeEdges calls behave like
// independent slices. The edge set is exactly the all-pairs one and rows
// are sorted, so the graph is independent of discovery order.
//
// Must be called on an edge-free graph (as the placement helpers do).
func (g *Graph) ConnectUnitDisk(r float64) {
	n := len(g.pos)
	if n < 2 || r <= 0 {
		return
	}
	var gr cellGrid
	gr.bucket(g.pos, r)
	// forEachPair visits every in-range pair (a, b) with a < b once.
	forEachPair := func(visit func(a, b int32)) {
		for a := 0; a < n; a++ {
			pa := g.pos[a]
			cx, cy := gr.cellXY(pa)
			for y := cy - 1; y <= cy+1; y++ {
				for x := cx - 1; x <= cx+1; x++ {
					for _, b := range gr.cell(x, y) {
						if int(b) > a && pa.Dist(g.pos[b]) <= r {
							visit(int32(a), b)
						}
					}
				}
			}
		}
	}
	deg := gr.cellOf // bucketing is done with it: reuse as degree counts
	clear(deg)
	forEachPair(func(a, b int32) {
		deg[a]++
		deg[b]++
	})
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + deg[i]
		deg[i] = 0 // becomes the fill cursor
	}
	arena := make([]NodeID, off[n])
	forEachPair(func(a, b int32) {
		arena[off[a]+deg[a]] = NodeID(b)
		deg[a]++
		arena[off[b]+deg[b]] = NodeID(a)
		deg[b]++
	})
	for i := 0; i < n; i++ {
		if off[i] == off[i+1] {
			continue // isolated node: keep the nil row
		}
		row := arena[off[i]:off[i+1]:off[i+1]]
		slices.Sort(row)
		g.adj[i] = row
	}
}
