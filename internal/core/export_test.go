package core

import "repro/internal/sensordata"

// HotWindow returns the activity sweep's window for one (node, type) pair.
func (p *Protocol) HotWindow(i int, t sensordata.Type) (lo, hi float64) {
	return p.hot.lo[t][i], p.hot.hi[t][i]
}

// GatedDeployed reports whether a node is deployed and takes the gated
// epoch path.
func (p *Protocol) GatedDeployed(i int) bool { return p.hot.gate[i] && p.hot.deployed[i] }

// SweepApply runs one epoch's activity sweep and worklist apply, without
// stepping the field or ticking controllers.
func (p *Protocol) SweepApply() { p.sweepApply() }
