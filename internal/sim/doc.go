// Package sim provides the deterministic discrete-event simulation engine
// underneath every DirQ run — the OMNeT++ substitute of the paper's §7
// evaluation setup.
//
// In the repo's layer map this is the bottom of the substrate: every other
// layer (topology, radio, lmac, core, scenario, serve) schedules its work
// here. The engine keys events by (time, priority, sequence) and pairs with
// a seeded, splittable random number generator (rng.go), so every
// simulation run is exactly reproducible from its seed, for any worker
// count, on amd64 hosts whose CPU has AVX and FMA. math.Exp's amd64
// assembly takes a fused multiply-add path on such CPUs and a plain one
// elsewhere (or under GODEBUG=cpu.fma=off); the two round about 9 % of
// the field's exponentials differently, so the field, and with it a run's
// output, can differ between amd64 hosts. Other architectures (arm64, ppc64le,
// s390x, riscv64) may also fuse multiply-adds in compiled Go and drift;
// ROADMAP item 1 tracks both.
//
// On amd64 with AVX2, vecmath.go's assembly kernels replace the hot
// scalar loops of the field model: the polar transform behind
// RNG.NormFloat64s; Exps, a batch exp; PlumeSums, the field's Gaussian
// plume terms with their cull tests; and SweepWindows, the activity
// sweep's per-pair window test. Each replays the scalar operations lane
// for lane, so no output bit depends on whether they run; the exp and
// plume kernels share one exp replay and run only on hosts whose math.Exp
// takes the path it replays, which a one-time probe checks.
//
// The event queue is a binary min-heap of events held by value, so it is
// allocation-free once the slice has grown to the peak number of pending
// events (one or two on every shipped workload). Cancel removes its event
// with a linear search, and every removal clears the vacated slot so the
// queue never keeps a finished closure alive.
//
// Work that is due at every tick (the protocol's epoch sweep, the MAC
// frame) registers as a ticker (Engine.AddTicker) instead of re-scheduling
// itself each epoch: Run/RunUntil batch-advance the clock and call tickers
// directly, so the per-epoch drive costs no event-queue traffic at all.
// Ordering stays strict — at a shared timestamp a ticker runs before heap
// events of the same priority, exactly where its self-scheduled
// predecessor sat.
package sim
