package core

import (
	"math"

	"repro/internal/sensordata"
	"repro/internal/topology"
)

// hotState is the protocol-owned struct-of-arrays view of everything the
// per-epoch hot loop needs: per-node participation and gate-capability
// flags, the per-(type, node) own-tuple windows the quiescence sweep tests
// readings against, and the active-node worklist that replaces the classic
// sweep over all N nodes.
//
// The windows double as the loop's control flow, via two sentinels:
//
//	(+Inf, -Inf)  always active  — evaluate every epoch (no own tuple yet,
//	                               or the node's controller needs exact
//	                               volatility so gating is off for it)
//	(-Inf, +Inf)  never active   — type unmounted, node dead or undeployed
//
// For a gated node with an established own tuple the window IS the tuple
// [THmin, THmax]: as long as the reading provably stays inside it, the
// hysteresis rule cannot fire, no Update Message can result, and — for a
// volatility-blind controller — no other state depends on the reading, so
// the whole (node, type) epoch step is skipped.
type hotState struct {
	// gate[i]: quiet types of this node may be skipped entirely (controller
	// ignores volatility, no sample gate installed, gating not disabled).
	gate []bool
	// deployed[i]: the node takes part in the epoch loop (in the tree or
	// orphaned-but-sampling). Liveness is checked separately — power flips
	// happen at the MAC layer and reach the protocol only via the
	// cross-layer death notification.
	deployed []bool

	// lo/hi[t][i] are the per-type windows fed to Generator.ActiveSweep.
	lo, hi [sensordata.NumTypes][]float64

	// tickList: gated nodes whose controller still needs OnEpoch every
	// epoch (e.g. the static-index freeze clock).
	tickList []int32

	// Worklist: nodes active this epoch (ascending) and, for those nodes,
	// the mask of active types. Both are written by the sweep.
	active   []int32
	mask     []uint8
	disabled bool // DisableGating: every mounted pair stays always-active

	// evalIDs is sweepApply's scratch list of one type's flagged nodes.
	evalIDs []topology.NodeID
}

func (h *hotState) init(n int, disabled bool) {
	h.disabled = disabled
	h.gate = make([]bool, n)
	h.deployed = make([]bool, n)
	for t := range h.lo {
		h.lo[t] = make([]float64, n)
		h.hi[t] = make([]float64, n)
	}
	h.mask = make([]uint8, n)
	h.active = make([]int32, 0, n)
	h.evalIDs = make([]topology.NodeID, 0, n)
}

var (
	posInf = math.Inf(1)
	negInf = math.Inf(-1)
)

// setNeverActive parks one (node, type) pair: the sweep will never surface
// it.
func (h *hotState) setNeverActive(i int, t sensordata.Type) {
	h.lo[t][i], h.hi[t][i] = negInf, posInf
}

// setAlwaysActive forces one (node, type) pair into every epoch's worklist.
func (h *hotState) setAlwaysActive(i int, t sensordata.Type) {
	h.lo[t][i], h.hi[t][i] = posInf, negInf
}

// parkNode takes a node out of the epoch loop entirely (death detected,
// never deployed).
func (h *hotState) parkNode(i int) {
	for t := range h.lo {
		h.lo[t][i], h.hi[t][i] = negInf, posInf
	}
}

// profileOf reports the conservative gating capabilities of a controller.
func profileOf(c Controller) (needsVol, needsTick bool) {
	if gp, ok := c.(GatingProfile); ok {
		return gp.NeedsVolatility(), gp.NeedsEpochTick()
	}
	return true, true
}

// configureNode (re)derives a node's gate flag, windows and tick-list
// membership from its controller and sensor complement. Called at
// construction and whenever the node object is replaced (JoinNode).
func (p *Protocol) configureNode(i int) {
	h := &p.hot
	node := p.nodes[i]
	needsVol, needsTick := profileOf(node.Controller())
	h.gate[i] = !h.disabled && p.cfg.Sampler == nil && !needsVol
	for _, t := range sensordata.AllTypes() {
		switch {
		case !node.Mounted().Has(t):
			h.setNeverActive(i, t)
		case h.gate[i]:
			p.refreshWindow(i, t)
		default:
			h.setAlwaysActive(i, t)
		}
	}
	p.rebuildTickList(i, h.gate[i] && needsTick)
}

// rebuildTickList adds or removes one node from the tick list.
func (p *Protocol) rebuildTickList(i int, member bool) {
	h := &p.hot
	for k, id := range h.tickList {
		if int(id) == i {
			if !member {
				h.tickList = append(h.tickList[:k], h.tickList[k+1:]...)
			}
			return
		}
	}
	if member {
		h.tickList = append(h.tickList, int32(i))
		// Keep ascending order so per-epoch controller ticks visit nodes in
		// the same order the classic sweep did.
		for k := len(h.tickList) - 1; k > 0 && h.tickList[k-1] > h.tickList[k]; k-- {
			h.tickList[k-1], h.tickList[k] = h.tickList[k], h.tickList[k-1]
		}
	}
}

// refreshWindow re-arms one gated (node, type) pair's sweep window from
// the node's current own tuple.
//
// For every live, deployed, gated node and mounted type the window mirrors
// the range table: (lo, hi) equals Own() when the node has an own tuple,
// and is the always-active sentinel (+Inf, -Inf) when it has none. Only
// OnReading moves an own tuple, and every OnReading on the gated path is
// followed by this call. applyActive's in-window skip rests on it.
func (p *Protocol) refreshWindow(i int, t sensordata.Type) {
	h := &p.hot
	if rt := p.nodes[i].tables[t]; rt != nil {
		if own, ok := rt.Own(); ok {
			h.lo[t][i], h.hi[t][i] = own.Min, own.Max
			return
		}
	}
	h.setAlwaysActive(i, t)
}
