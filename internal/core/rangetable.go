package core

import (
	"fmt"
	"slices"

	"repro/internal/topology"
)

// Tuple is a (THmin, THmax) pair — one Range Table row.
type Tuple struct {
	Min, Max float64
}

// Intersects reports whether the closed interval [Min, Max] overlaps
// [lo, hi].
func (t Tuple) Intersects(lo, hi float64) bool {
	return t.Max >= lo && t.Min <= hi
}

// RangeTable is the §4.1 data structure, one instance per sensor type per
// node: the node's own threshold tuple (maintained with hysteresis δ) plus
// one tuple per one-hop child, along with the aggregate last transmitted to
// the parent so the table can decide when a new Update Message is due.
type RangeTable struct {
	own    Tuple
	hasOwn bool

	childIDs []topology.NodeID // children with entries, sorted
	children []Tuple           // children[i] is childIDs[i]'s tuple

	lastSent Tuple
	hasSent  bool
}

// NewRangeTable returns an empty table.
func NewRangeTable() *RangeTable {
	return &RangeTable{}
}

// ObserveReading applies the hysteresis rule to a new sensor reading RAq
// with threshold delta (in sensor units): if the reading falls outside the
// current [THmin, THmax] the tuple is re-centred to [RAq-δ, RAq+δ] (eqs. (1)
// and (2)); otherwise the table is left unchanged. Reports whether the
// table was modified.
func (rt *RangeTable) ObserveReading(v, delta float64) bool {
	if delta < 0 {
		panic(fmt.Sprintf("core: negative delta %v", delta))
	}
	if rt.hasOwn && v >= rt.own.Min && v <= rt.own.Max {
		return false
	}
	rt.own = Tuple{Min: v - delta, Max: v + delta}
	rt.hasOwn = true
	return true
}

// Own returns the node's own tuple; ok is false if the node has never taken
// a reading for this type (or does not mount it).
func (rt *RangeTable) Own() (Tuple, bool) { return rt.own, rt.hasOwn }

// ClearOwn removes the node's own tuple (sensor removed from the node).
func (rt *RangeTable) ClearOwn() { rt.own = Tuple{}; rt.hasOwn = false }

// SetChild stores the aggregate tuple most recently reported by a child.
// Reports whether the stored value changed.
func (rt *RangeTable) SetChild(id topology.NodeID, t Tuple) bool {
	i, ok := slices.BinarySearch(rt.childIDs, id)
	if ok {
		if rt.children[i] == t {
			return false
		}
		rt.children[i] = t
		return true
	}
	rt.childIDs = slices.Insert(rt.childIDs, i, id)
	rt.children = slices.Insert(rt.children, i, t)
	return true
}

// Child returns the stored tuple for a child.
func (rt *RangeTable) Child(id topology.NodeID) (Tuple, bool) {
	if i, ok := slices.BinarySearch(rt.childIDs, id); ok {
		return rt.children[i], true
	}
	return Tuple{}, false
}

// RemoveChild deletes a child's entry (dead node or withdrawn sensor type).
// Reports whether an entry existed.
func (rt *RangeTable) RemoveChild(id topology.NodeID) bool {
	i, ok := slices.BinarySearch(rt.childIDs, id)
	if !ok {
		return false
	}
	rt.childIDs = slices.Delete(rt.childIDs, i, i+1)
	rt.children = slices.Delete(rt.children, i, i+1)
	return true
}

// ClearChildren drops every child entry at once.
func (rt *RangeTable) ClearChildren() {
	rt.childIDs = rt.childIDs[:0]
	rt.children = rt.children[:0]
}

// Children returns the child IDs with entries, sorted. The returned slice
// is shared with the table and must not be modified or held across calls
// that change the child set.
func (rt *RangeTable) Children() []topology.NodeID {
	return rt.childIDs
}

// AppendIntersecting appends to dst, in ascending order, the children
// whose stored tuples intersect [lo, hi], and returns the extended slice.
func (rt *RangeTable) AppendIntersecting(dst []topology.NodeID, lo, hi float64) []topology.NodeID {
	for i, t := range rt.children {
		if t.Intersects(lo, hi) {
			dst = append(dst, rt.childIDs[i])
		}
	}
	return dst
}

// Len returns the number of rows (own entry plus child entries) — the n+1
// of §4.1.
func (rt *RangeTable) Len() int {
	n := len(rt.children)
	if rt.hasOwn {
		n++
	}
	return n
}

// Empty reports whether the table holds no information at all, meaning the
// sensor type no longer exists in this node's subtree.
func (rt *RangeTable) Empty() bool { return rt.Len() == 0 }

// Aggregate returns (min(THmin), max(THmax)) over all rows (Fig. 2); ok is
// false when the table is empty. Rows are folded own first, then children
// in ascending ID order, so ties between ±0 and NaN rows resolve the same
// way every run.
func (rt *RangeTable) Aggregate() (Tuple, bool) {
	if rt.Empty() {
		return Tuple{}, false
	}
	first := true
	var agg Tuple
	if rt.hasOwn {
		agg = rt.own
		first = false
	}
	for _, t := range rt.children {
		if first {
			agg = t
			first = false
			continue
		}
		if t.Min < agg.Min {
			agg.Min = t.Min
		}
		if t.Max > agg.Max {
			agg.Max = t.Max
		}
	}
	return agg, true
}

// pendingUpdate describes what, if anything, must be transmitted to the
// parent after a table modification.
type pendingUpdate struct {
	send     bool
	withdraw bool
	agg      Tuple
}

// decideUpdate implements Fig. 3: an Update Message is due when the new
// aggregate min or max differs from the previously transmitted aggregate by
// more than delta, when no aggregate was ever sent, or when the table just
// became empty (withdrawal).
func (rt *RangeTable) decideUpdate(delta float64) pendingUpdate {
	agg, ok := rt.Aggregate()
	if !ok {
		if rt.hasSent {
			return pendingUpdate{send: true, withdraw: true}
		}
		return pendingUpdate{}
	}
	if !rt.hasSent {
		return pendingUpdate{send: true, agg: agg}
	}
	if abs(agg.Min-rt.lastSent.Min) > delta || abs(agg.Max-rt.lastSent.Max) > delta {
		return pendingUpdate{send: true, agg: agg}
	}
	return pendingUpdate{}
}

// markSent records the transmitted aggregate.
func (rt *RangeTable) markSent(agg Tuple) {
	rt.lastSent = agg
	rt.hasSent = true
}

// markWithdrawn records that the parent was told the type is gone.
func (rt *RangeTable) markWithdrawn() {
	rt.lastSent = Tuple{}
	rt.hasSent = false
}

// LastSent returns the aggregate last transmitted; ok is false when nothing
// is outstanding at the parent.
func (rt *RangeTable) LastSent() (Tuple, bool) { return rt.lastSent, rt.hasSent }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
