package sensordata

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// fieldDigest steps a paper-size field (50 nodes on the 100 m square) and
// a 700-node one on scaleSide, where most far plumes are culled, through
// epochs, evaluating every pair with EvalNodes each epoch, and hashes
// every value and plume snapshot.
func fieldDigest(epochs int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, c := range []struct {
		n    int
		side float64
	}{{50, 100}, {700, scaleSide}} {
		g := NewGenerator(refPositionsIn(c.n, 4, c.side), sim.NewRNG(12).Stream("data"))
		ids := make([]topology.NodeID, c.n)
		for i := range ids {
			ids[i] = topology.NodeID(i)
		}
		for range epochs {
			g.Step()
			for _, ty := range AllTypes() {
				g.EvalNodes(ty, ids)
				for i := range ids {
					put(g.values[i][ty])
					put(g.snapPlume[int(ty)*c.n+i])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPaperScaleFieldDigest pins the field's values and plume snapshots
// over 300 epochs at paper scale and on a large culled field, with the
// kernels as the host enables them and forced off. A change that moves any
// exponential by an ulp fails it, which the golden file's small invocation
// would not see. sim.Exp rounds alike on every host, so the one digest
// holds everywhere.
func TestPaperScaleFieldDigest(t *testing.T) {
	const want = "a1ab6d53dbbdf3032012e56feb76b657a9cc7f7063bf51a27b77750f852ac71e"
	kernelModes(t, func(t *testing.T) {
		if got := fieldDigest(300); got != want {
			t.Fatalf("field digest %s, want %s", got, want)
		}
	})
}
