package topology

import (
	"fmt"

	"repro/internal/sim"
)

// PlacementConfig controls random node placement.
type PlacementConfig struct {
	// N is the total node count including the root.
	N int
	// Width and Height are the deployment-area dimensions.
	Width, Height float64
	// RadioRange is the unit-disk communication radius.
	RadioRange float64
	// MaxAttempts bounds connectivity-repair retries before increasing the
	// radio range. Zero means a sensible default.
	MaxAttempts int
}

// DefaultPlacement mirrors the paper's 50-node scenario: 50 nodes in a
// 100x100 area with a radio range that yields a multihop topology.
func DefaultPlacement() PlacementConfig {
	return PlacementConfig{N: 50, Width: 100, Height: 100, RadioRange: 25}
}

// PlaceRandom scatters cfg.N nodes uniformly in the deployment area (the
// root in the centre of the top edge, as a sink typically sits at the field
// boundary) and connects nodes within radio range. If the resulting graph is
// disconnected it re-draws positions; after MaxAttempts it grows the radio
// range by 10% and keeps trying, so it always terminates with a connected
// multihop graph.
//
// Most rejected draws are rejected cheaply: the positions are bucketed
// into the grid ConnectUnitDisk uses and scanned for a node with no
// neighbour in range, which proves the draw disconnected without building
// its graph. Only a draw with no isolated node pays for the full build and
// connectivity check, so the result is the same as building every draw.
func PlaceRandom(cfg PlacementConfig, rng *sim.RNG) (*Graph, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("topology: need at least 1 node, got %d", cfg.N)
	}
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.RadioRange <= 0 {
		return nil, fmt.Errorf("topology: non-positive area or range (%v x %v, r=%v)",
			cfg.Width, cfg.Height, cfg.RadioRange)
	}
	attempts := cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 50
	}
	r := cfg.RadioRange
	pos := make([]Position, cfg.N)               // NewGraph copies, so draws can share it
	pos[Root] = Position{X: cfg.Width / 2, Y: 0} // sink at the field edge
	var grid cellGrid
	for {
		for try := 0; try < attempts; try++ {
			for i := 1; i < cfg.N; i++ {
				pos[i] = Position{X: rng.Range(0, cfg.Width), Y: rng.Range(0, cfg.Height)}
			}
			if hasIsolated(&grid, pos, r) {
				continue
			}
			g := NewGraph(pos)
			g.ConnectUnitDisk(r)
			if g.Connected() {
				return g, nil
			}
		}
		r *= 1.1
	}
}

// hasIsolated buckets pos into grid and reports whether some node has no
// other node within r, stopping at the first one. With two or more nodes
// such a node proves the unit-disk graph disconnected.
func hasIsolated(grid *cellGrid, pos []Position, r float64) bool {
	if len(pos) < 2 {
		return false
	}
	grid.bucket(pos, r)
	for a := range pos {
		if !grid.hasNeighbor(pos, a, r) {
			return true
		}
	}
	return false
}

// PlaceGrid lays out n*n nodes on a regular grid with the given spacing and
// connects nodes within radio range. The root is the corner node. Useful for
// reproducible structured topologies in tests.
func PlaceGrid(n int, spacing, radioRange float64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: grid dimension %d < 1", n)
	}
	if spacing <= 0 || radioRange <= 0 {
		return nil, fmt.Errorf("topology: non-positive spacing %v or range %v", spacing, radioRange)
	}
	pos := make([]Position, n*n)
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			pos[row*n+col] = Position{X: float64(col) * spacing, Y: float64(row) * spacing}
		}
	}
	g := NewGraph(pos)
	g.ConnectUnitDisk(radioRange)
	if !g.Connected() {
		return nil, fmt.Errorf("topology: grid with spacing %v and range %v is disconnected", spacing, radioRange)
	}
	return g, nil
}

// PlaceLine lays out n nodes on a line with the given spacing, each
// connected to its immediate neighbors. Produces a maximally deep topology.
func PlaceLine(n int, spacing float64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: line length %d < 1", n)
	}
	pos := make([]Position, n)
	for i := range pos {
		pos[i] = Position{X: float64(i) * spacing}
	}
	g := NewGraph(pos)
	g.ConnectUnitDisk(spacing * 1.01)
	return g, nil
}
