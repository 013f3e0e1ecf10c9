package query

import (
	"math/bits"

	"repro/internal/topology"
)

// NodeSet is a set of node IDs held as a dense bitset: node id is bit
// id%64 of word id/64. The zero value is an empty set that grows on Add;
// NewNodeSet sizes one for a network up front. Copies share their words,
// so a set is filled through one variable and only read through copies.
type NodeSet struct {
	words []uint64
	n     int // members
}

// NewNodeSet returns an empty set with room for the IDs of an n-node
// network.
func NewNodeSet(n int) NodeSet {
	return NodeSet{words: make([]uint64, (n+63)/64)}
}

// Add inserts id; adding a member again changes nothing.
func (s *NodeSet) Add(id topology.NodeID) {
	w := int(id) >> 6
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	bit := uint64(1) << (uint(id) & 63)
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

// Has reports whether id is a member.
func (s NodeSet) Has(id topology.NodeID) bool {
	w := int(id) >> 6
	return id >= 0 && w < len(s.words) && s.words[w]&(1<<(uint(id)&63)) != 0
}

// Len returns the number of members.
func (s NodeSet) Len() int { return s.n }

// CountNotIn returns how many members of s are not members of t.
func (s NodeSet) CountNotIn(t NodeSet) int {
	c := 0
	for i, w := range s.words {
		if i < len(t.words) {
			w &^= t.words[i]
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// IDs returns the members in ascending order, as a new slice that is
// non-nil even when the set is empty (so it encodes as a JSON array).
func (s NodeSet) IDs() []topology.NodeID {
	out := make([]topology.NodeID, 0, s.n)
	for i, w := range s.words {
		for w != 0 {
			out = append(out, topology.NodeID(i<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}
