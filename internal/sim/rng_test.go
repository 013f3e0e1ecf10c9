package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed generated only %d distinct values in 100 draws", len(seen))
	}
}

func TestStreamDeterministicAndIndependent(t *testing.T) {
	r1 := NewRNG(7).Stream("alpha")
	r2 := NewRNG(7).Stream("alpha")
	r3 := NewRNG(7).Stream("beta")
	diverged := false
	for i := 0; i < 200; i++ {
		v1, v2, v3 := r1.Uint64(), r2.Uint64(), r3.Uint64()
		if v1 != v2 {
			t.Fatalf("same-name streams diverged at draw %d", i)
		}
		if v1 != v3 {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("differently named streams are identical")
	}
}

func TestStreamNIndependentPerIndex(t *testing.T) {
	root := NewRNG(99)
	a := root.StreamN("node", 0)
	b := root.StreamN("node", 1)
	c := NewRNG(99).StreamN("node", 0)
	diverged := false
	for i := 0; i < 200; i++ {
		va, vb, vc := a.Uint64(), b.Uint64(), c.Uint64()
		if va != vc {
			t.Fatalf("StreamN not reproducible at draw %d", i)
		}
		if va != vb {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("StreamN index 0 and 1 are identical streams")
	}
}

func TestStreamDoesNotPerturbParent(t *testing.T) {
	a := NewRNG(5)
	b := NewRNG(5)
	_ = a.Stream("x") // deriving a stream must not consume parent state
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Stream derivation perturbed the parent at draw %d", i)
		}
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(12)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBoundsAndCoverage(t *testing.T) {
	r := NewRNG(13)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(10) digit %d occurred %d/100000 times, want ~10000", d, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRNG(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestIntnOne(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if v := r.Intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d, want 0", v)
		}
	}
}

func TestRangeBounds(t *testing.T) {
	r := NewRNG(21)
	for i := 0; i < 10000; i++ {
		v := r.Range(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Range(-3,7) = %v out of bounds", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(31)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(41)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v negative", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(71)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v, want ~0.3", frac)
	}
	for i := 0; i < 1000; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
	}
}

// Property: Intn output is always within bounds for any positive n.
func TestPropertyIntnInBounds(t *testing.T) {
	r := NewRNG(81)
	f := func(n uint16) bool {
		m := int(n)%1000 + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: streams derived with distinct indices are pairwise reproducible.
func TestPropertyStreamNReproducible(t *testing.T) {
	f := func(seed uint64, idx uint8) bool {
		a := NewRNG(seed).StreamN("s", int(idx))
		b := NewRNG(seed).StreamN("s", int(idx))
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
