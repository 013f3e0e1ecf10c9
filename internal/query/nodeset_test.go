package query

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestNodeSetDuplicates(t *testing.T) {
	s := NewNodeSet(10)
	for _, id := range []topology.NodeID{3, 3, 7, 3, 7} {
		s.Add(id)
	}
	if s.Len() != 2 || !s.Has(3) || !s.Has(7) || s.Has(4) {
		t.Fatalf("set %v (len %d), want [3 7]", s.IDs(), s.Len())
	}
}

// TestNodeSetLastPartialWord covers IDs in a last word that only part of
// the network fills, and an Add past the size the set was made for.
func TestNodeSetLastPartialWord(t *testing.T) {
	s := NewNodeSet(70)
	for _, id := range []topology.NodeID{69, 64, 63, 0, 130} {
		s.Add(id)
	}
	want := []topology.NodeID{0, 63, 64, 69, 130}
	if got := s.IDs(); !slices.Equal(got, want) || s.Len() != len(want) {
		t.Fatalf("IDs %v (len %d), want %v", got, s.Len(), want)
	}
	for _, id := range []topology.NodeID{-1, 1, 62, 65, 68, 70, 129, 131, 1000} {
		if s.Has(id) {
			t.Fatalf("Has(%d) on %v", id, want)
		}
	}
}

// TestNodeSetAscendingIDs adds random IDs in random order, some more
// than once, and checks IDs against the sorted distinct inputs.
func TestNodeSetAscendingIDs(t *testing.T) {
	rng := sim.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		var s NodeSet
		if trial%2 == 0 {
			s = NewNodeSet(n)
		}
		var want []topology.NodeID
		for k := rng.Intn(2 * n); k > 0; k-- {
			id := topology.NodeID(rng.Intn(n))
			s.Add(id)
			want = append(want, id)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if got := s.IDs(); !slices.Equal(got, want) || s.Len() != len(want) {
			t.Fatalf("trial %d: IDs %v (len %d), want %v", trial, got, s.Len(), want)
		}
	}
}

// TestNodeSetEmptyIDs checks that an empty set, made or zero, lists a
// non-nil empty slice, which encodes as a JSON array rather than null.
func TestNodeSetEmptyIDs(t *testing.T) {
	for _, s := range []NodeSet{{}, NewNodeSet(0), NewNodeSet(100)} {
		ids := s.IDs()
		if ids == nil || len(ids) != 0 || s.Len() != 0 {
			t.Fatalf("empty set lists %#v (len %d)", ids, s.Len())
		}
		if b, err := json.Marshal(ids); err != nil || string(b) != "[]" {
			t.Fatalf("empty IDs encode as %s (%v), want []", b, err)
		}
	}
}

func TestNodeSetCountNotIn(t *testing.T) {
	var a, b NodeSet
	for _, id := range []topology.NodeID{1, 2, 64, 65, 200} {
		a.Add(id)
	}
	for _, id := range []topology.NodeID{2, 65, 66} {
		b.Add(id)
	}
	if got := a.CountNotIn(b); got != 3 {
		t.Fatalf("|a \\ b| = %d, want 3 (1, 64, 200)", got)
	}
	if got := b.CountNotIn(a); got != 1 {
		t.Fatalf("|b \\ a| = %d, want 1 (66)", got)
	}
	if got := a.CountNotIn(NodeSet{}); got != a.Len() {
		t.Fatalf("|a \\ {}| = %d, want %d", got, a.Len())
	}
}
