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

// expPaths names the math.Exp implementations this package's outputs are
// pinned on, by a fingerprint of math.Exp over expFingerprint's arguments:
// amd64's assembly takes a fused path on CPUs with AVX and FMA and a plain
// one elsewhere (or under GODEBUG=cpu.fma=off), and 386 runs the pure-Go
// algorithm. They round a share of the field's exponentials differently,
// so each has its own field digest.
var expPaths = map[string]struct{ name, digest string }{
	"39564970147e3d05": {"amd64 FMA", "a1ab6d53dbbdf3032012e56feb76b657a9cc7f7063bf51a27b77750f852ac71e"},
	"10b62684bf1f76ba": {"amd64 plain (no FMA)", "d3a879ffa3e85420349f846e4b2660c2214cf1ce80251eb5d7e3cc6ee7e633ff"},
	"223092224b2f10d3": {"pure-Go (386)", "0fc660718e055c8cd9920fa1edf06ded1a24e1a591ad263a01b454268b7966e5"},
}

// expFingerprint hashes math.Exp's bits over 4096 arguments spread across
// [−40, 0], the range field evaluation feeds it.
func expFingerprint() string {
	h := sha256.New()
	var buf [8]byte
	for i := range 4096 {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(math.Exp(-40*float64(i)/4096)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

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
// over 300 epochs at paper scale and on a large culled field, one digest
// per math.Exp path, with the kernels as the host enables them and forced
// off. A change that moves any exponential by an ulp fails it. The golden
// file and the bench digests would not all see that: the golden
// invocation is too small to tell the exp paths apart.
func TestPaperScaleFieldDigest(t *testing.T) {
	fp := expFingerprint()
	path, ok := expPaths[fp]
	if !ok {
		t.Skipf("math.Exp takes no pinned path here (fingerprint %s); the field digest is unchecked", fp)
	}
	kernelModes(t, func(t *testing.T) {
		if got := fieldDigest(300); got != path.digest {
			t.Fatalf("field digest %s on the %s exp path (fingerprint %s), want %s", got, path.name, fp, path.digest)
		}
	})
}
