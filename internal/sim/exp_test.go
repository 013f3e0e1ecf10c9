package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// expEdges are Exp's special cases and the arguments around its branch
// points: overflow, the subnormal range, the underflow to zero and k = 0.
var expEdges = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
	math.MaxFloat64, -math.MaxFloat64, 5e-324, -5e-324, 1e-300, -1e-300,
	7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 1), 709.78, 710,
	-708, -707.99, -708.4, -709, -709.1, -744.44, -745, -745.1, -745.13, -745.2, -746,
	-0.009983, -0.5, 0.5, 1, -1, 0.34657359027997264, -0.34657359027997264,
}

// TestExpMatchesFMAPath holds Exp to math.Exp bit for bit on a host whose
// math.Exp takes the FMA path of its amd64 assembly (recognised by its
// result at −0.009983, where the FMA and plain paths round apart): 10⁷
// arguments over all bit patterns, over [−760, 760] and over the
// subnormal and underflow range [−748, −708], plus the edges, and a
// SHA-256 of both over a fixed grid. On every host it checks Exp against
// that digest, so Exp gives the same bits with hardware or software FMA
// and on every architecture.
func TestExpMatchesFMAPath(t *testing.T) {
	if math.Float64bits(math.Exp(-0.009983)) != 0x3fefaea0493d4c1b {
		t.Log("this host's math.Exp does not take the FMA path; only the grid digest is checked")
	} else {
		check := func(x float64) {
			if got, want := Exp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Exp(%v) (%#x) = %v (%#x), math.Exp %v (%#x)",
					x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, x := range expEdges {
			check(x)
		}
		r := NewRNG(27)
		n := 10_000_000
		if testing.Short() {
			n /= 10
		}
		for i := range n {
			switch i % 3 {
			case 0:
				check(math.Float64frombits(r.Uint64()))
			case 1:
				check(r.Range(-760, 760))
			default:
				check(r.Range(-748, -708))
			}
		}
		if got := expGridDigest(math.Exp); got != expGridPin {
			t.Fatalf("math.Exp grid digest %s, want %s", got, expGridPin)
		}
	}
	if got := expGridDigest(Exp); got != expGridPin {
		t.Fatalf("Exp grid digest %s, want %s", got, expGridPin)
	}
}

// expGridPin is the digest of math.Exp's FMA path over expGridDigest's
// arguments.
const expGridPin = "f5223766abb4b15f0bf9c2b8569d04c72fb6476274cba9f9006528240400a9c2"

// expGridDigest hashes exp's bits over the edges and 2²⁰ evenly spaced
// arguments across [−760, 760].
func expGridDigest(exp func(float64) float64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(exp(x)))
		h.Write(buf[:])
	}
	for _, x := range expEdges {
		put(x)
	}
	const n = 1 << 20
	for i := range n {
		put(-760 + 1520*float64(i)/n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BenchmarkExp times Exp and math.Exp over 4096 arguments spread across
// [−40, 0], the range field evaluation feeds them.
func BenchmarkExp(b *testing.B) {
	x := make([]float64, 4096)
	r := NewRNG(1)
	for i := range x {
		x[i] = -r.Range(0, 40)
	}
	for _, c := range []struct {
		name string
		exp  func(float64) float64
	}{{"sim", Exp}, {"math", math.Exp}} {
		b.Run(c.name, func(b *testing.B) {
			s := 0.0
			for range b.N {
				for _, v := range x {
					s += c.exp(v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/exp")
			if s < 0 {
				b.Fatal(s)
			}
		})
	}
}
