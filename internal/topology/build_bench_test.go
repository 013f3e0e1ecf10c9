package topology

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// BenchmarkTopologyBuild times topology construction at 25 000 nodes in
// scenario.ScaleDefault(25000)'s square (side 100·√(25000/50) m, range
// 25 m):
//
//   - place: PlaceRandom, the whole seeded placement with its
//     connectivity retries and final unit-disk build;
//   - connect: ConnectUnitDisk alone on one fixed draw of positions.
func BenchmarkTopologyBuild(b *testing.B) {
	const n, radio = 25000, 25.0
	side := 100 * math.Sqrt(n/50.0)
	cfg := PlacementConfig{N: n, Width: side, Height: side, RadioRange: radio}
	b.Run("place-25k", func(b *testing.B) {
		b.ReportAllocs()
		for k := range b.N {
			if _, err := PlaceRandom(cfg, sim.NewRNG(uint64(k%5+1)).Stream("place")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("connect-25k", func(b *testing.B) {
		g, err := PlaceRandom(cfg, sim.NewRNG(1).Stream("place"))
		if err != nil {
			b.Fatal(err)
		}
		pos := make([]Position, n)
		for i := range pos {
			pos[i] = g.Pos(NodeID(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			NewGraph(pos).ConnectUnitDisk(radio)
		}
	})
}
