package core

import "repro/internal/sim"

// runEpochSharded is the intra-epoch parallel form of the gated loop in
// RunEpoch. The epoch splits into two fan-out phases with serial merge
// points between them, chosen so every phase either runs the exact serial
// arithmetic on disjoint state or runs serially:
//
//  1. Sweep: contiguous ID ranges are swept in parallel by the same
//     sensordata.ActiveSweepRange call the serial loop makes over [0, N),
//     producing per-range ascending worklists whose concatenation equals
//     the serial worklist bit-for-bit.
//  2. Apply: each shard walks the worklist and processes only its own
//     subtree-partitioned nodes. All writes are node-local (tables,
//     controllers, the node's MAC queue), shard-local (Update Message
//     pools, staged dirty lists) or atomic (telemetry); the radio channel
//     is frozen across the phase as an executable proof that nothing
//     transmits — queue CONTENT per node matches the serial run exactly,
//     and frame-time delivery (fully serial) consumes the shared loss RNG
//     in the identical order.
//
// Controller epoch ticks and the hourly estimate stay serial: they are
// cheap and order-sensitive. gen.Step ran (type-parallel) in RunEpoch
// before dispatch.
func (p *Protocol) runEpochSharded(now sim.Time) {
	h := &p.hot
	k := p.cfg.Shards
	w := p.cfg.Workers

	// Phase 1: parallel sweep over contiguous ID ranges.
	p.gen.PrepareConcurrentReads()
	w.Run(k, func(r int) {
		p.sweepDst[r] = p.gen.ActiveSweepRange(
			&h.lo, &h.hi, h.mask, p.sweepFrom[r], p.sweepTo[r], p.sweepDst[r][:0])
	})

	// Merge: ranges are ascending and contiguous, so plain concatenation
	// reproduces the serial loop's ascending worklist without a sort.
	active := h.active[:0]
	for r := 0; r < k; r++ {
		active = append(active, p.sweepDst[r]...)
	}
	h.active = active
	p.cfg.Telemetry.ActiveSetSize.Observe(float64(len(active)))
	p.cfg.Telemetry.ActiveNodes.Add(int64(len(active)))
	p.observeShardBalance(active)

	// Phase 2: parallel apply, one task per shard over its own nodes.
	p.channel.Freeze()
	p.mac.BeginStaging()
	w.Run(k, func(s int) {
		shard := int32(s)
		for _, ai := range active {
			if p.shardOf[ai] == shard {
				p.applyActive(int(ai))
			}
		}
	})
	p.mac.EndStaging()
	p.channel.Unfreeze()

	// Serial tail: epoch clocks of counting controllers, hourly estimate.
	p.tickAndEstimate(now)
}

// observeShardBalance feeds the per-shard worklist sizes into the shard
// telemetry: one count per shard plus the epoch's max−min spread. All
// quantities derive from the deterministic worklist, never from timing,
// so instrumented traces stay byte-reproducible.
func (p *Protocol) observeShardBalance(active []int32) {
	tel := &p.cfg.Telemetry
	if len(tel.ShardActive) == 0 && tel.ShardImbalance == nil {
		return
	}
	for s := range p.shardLoad {
		p.shardLoad[s] = 0
	}
	for _, ai := range active {
		p.shardLoad[p.shardOf[ai]]++
	}
	lo, hi := int64(-1), int64(0)
	for s, c := range p.shardLoad {
		if s < len(tel.ShardActive) {
			tel.ShardActive[s].Add(c)
		}
		if lo < 0 || c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo < 0 {
		lo = 0
	}
	tel.ShardImbalance.Observe(float64(hi - lo))
}
