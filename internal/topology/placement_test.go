package topology

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// placeRandomReference is a frozen copy of PlaceRandom's retry loop from
// before the isolated-node scan: every draw builds its full graph and
// checks connectivity. It also returns the number of draws it made.
// PlaceRandom must return the same graph after the same draws.
func placeRandomReference(cfg PlacementConfig, rng *sim.RNG) (*Graph, int) {
	attempts := cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 50
	}
	r := cfg.RadioRange
	draws := 0
	for {
		for try := 0; try < attempts; try++ {
			draws++
			pos := make([]Position, cfg.N)
			pos[Root] = Position{X: cfg.Width / 2, Y: 0}
			for i := 1; i < cfg.N; i++ {
				pos[i] = Position{X: rng.Range(0, cfg.Width), Y: rng.Range(0, cfg.Height)}
			}
			g := NewGraph(pos)
			g.ConnectUnitDisk(r)
			if g.Connected() {
				return g, draws
			}
		}
		r *= 1.1
	}
}

// scaledPlacement mirrors scenario.ScaleDefault's deployment: the paper's
// 50-node density (100×100, range 25) held as n grows.
func scaledPlacement(n int) PlacementConfig {
	cfg := DefaultPlacement()
	cfg.N = n
	if n > 50 {
		side := 100 * math.Sqrt(float64(n)/50)
		cfg.Width, cfg.Height = side, side
	}
	return cfg
}

// assertSamePlacement runs PlaceRandom and the frozen reference on the
// same seed and fails unless positions, adjacency and the RNG state they
// leave behind (hence the number of draws) all match.
func assertSamePlacement(t *testing.T, cfg PlacementConfig, seed int) {
	t.Helper()
	rngNew := sim.NewRNG(uint64(seed)).Stream("place")
	rngRef := sim.NewRNG(uint64(seed)).Stream("place")
	got, err := PlaceRandom(cfg, rngNew)
	if err != nil {
		t.Fatalf("%+v seed %d: %v", cfg, seed, err)
	}
	want, _ := placeRandomReference(cfg, rngRef)
	if !reflect.DeepEqual(got.pos, want.pos) {
		t.Fatalf("%+v seed %d: positions differ from the reference loop", cfg, seed)
	}
	if !reflect.DeepEqual(got.adj, want.adj) {
		t.Fatalf("%+v seed %d: adjacency differs from the reference loop", cfg, seed)
	}
	if a, b := rngNew.Uint64(), rngRef.Uint64(); a != b {
		t.Fatalf("%+v seed %d: RNG left in a different state (draw counts differ)", cfg, seed)
	}
}

func TestPlaceRandomMatchesReference(t *testing.T) {
	cfgs := []PlacementConfig{
		scaledPlacement(1),
		scaledPlacement(2),
		scaledPlacement(50),
		scaledPlacement(500),
		scaledPlacement(2000),
	}
	// MaxAttempts 1 and 2 grow the radius after almost every failed draw.
	for _, n := range []int{2, 50, 500} {
		for _, attempts := range []int{1, 2} {
			cfg := scaledPlacement(n)
			cfg.MaxAttempts = attempts
			cfgs = append(cfgs, cfg)
		}
	}
	// A range far too short for the area forces many growth rounds.
	cfgs = append(cfgs, PlacementConfig{N: 30, Width: 100, Height: 100, RadioRange: 2, MaxAttempts: 2})
	for _, cfg := range cfgs {
		for seed := 1; seed <= 64; seed++ {
			assertSamePlacement(t, cfg, seed)
		}
	}
}

// TestPlaceRandomMatchesReference25k checks one seed at the field-scale
// size, where nearly every rejected draw has an isolated node.
func TestPlaceRandomMatchesReference25k(t *testing.T) {
	if testing.Short() {
		t.Skip("25k-node placement: the reference loop takes seconds")
	}
	assertSamePlacement(t, scaledPlacement(25000), 1)
}

// TestHasIsolatedMatchesBruteForce pins the early-exit scan to the
// all-pairs definition: a node is isolated when no other node lies within
// r. Layouts include negative and offset coordinates.
func TestHasIsolatedMatchesBruteForce(t *testing.T) {
	var grid cellGrid // shared across layouts, as PlaceRandom shares it
	found := [2]int{}
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRNG(seed)
		n := 2 + rng.Intn(40)
		ox, oy := rng.Range(-500, 500), rng.Range(-500, 500)
		pos := make([]Position, n)
		for i := range pos {
			pos[i] = Position{X: ox + rng.Range(-60, 60), Y: oy + rng.Range(-60, 60)}
		}
		for _, r := range []float64{3, 12, 30, 200} {
			isolated := func(a int) bool {
				for b := range pos {
					if b != a && pos[a].Dist(pos[b]) <= r {
						return false
					}
				}
				return true
			}
			want := false
			for a := range pos {
				want = want || isolated(a)
			}
			if got := hasIsolated(&grid, pos, r); got != want {
				t.Fatalf("seed %d n=%d r=%v: hasIsolated = %v, brute force %v", seed, n, r, got, want)
			}
			for a := range pos {
				if grid.hasNeighbor(pos, a, r) == isolated(a) {
					t.Fatalf("seed %d n=%d r=%v: node %d hasNeighbor disagrees with brute force", seed, n, r, a)
				}
			}
			if want {
				found[1]++
			} else {
				found[0]++
			}
		}
	}
	if found[0] == 0 || found[1] == 0 {
		t.Fatalf("layouts never exercised both outcomes: %d without, %d with an isolated node", found[0], found[1])
	}
	if hasIsolated(&grid, []Position{{3, 4}}, 1) {
		t.Fatal("a single node counts as isolated; it is trivially connected")
	}
}

// TestPlaceRandomAllocsFlatInDraws pins PlaceRandom's allocations to a
// constant that does not grow with the number of draws: positions and
// grid buckets are reused across draws, and a draw rejected by the
// isolated-node scan allocates nothing. Seed 13 needs 16 draws, 15 of
// them rejected by the scan; seed 6 is accepted on its first draw. Both
// build exactly one graph, so they must allocate the same up to the odd
// runtime allocation the count picks up, while even one allocation per
// draw adds 15. A graph build per draw (over twenty allocations each)
// breaks the fixed ceiling many times over.
func TestPlaceRandomAllocsFlatInDraws(t *testing.T) {
	cfg := scaledPlacement(5000)
	allocs := func(seed uint64, wantDraws int) float64 {
		t.Helper()
		if _, draws := placeRandomReference(cfg, sim.NewRNG(seed).Stream("place")); draws != wantDraws {
			t.Fatalf("seed %d needs %d draws, want %d", seed, draws, wantDraws)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := PlaceRandom(cfg, sim.NewRNG(seed).Stream("place")); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(6, 1), allocs(13, 16)
	const ceiling = 64
	if many > ceiling {
		t.Fatalf("PlaceRandom at 5000 nodes, 16 draws: %.0f allocs, ceiling %d", many, ceiling)
	}
	if many > one+3 {
		t.Fatalf("PlaceRandom at 5000 nodes: %.0f allocs after 1 draw, %.0f after 16", one, many)
	}
	t.Logf("PlaceRandom at 5000 nodes: %.0f allocs after 1 draw, %.0f after 16 (ceiling %d)", one, many, ceiling)
}
