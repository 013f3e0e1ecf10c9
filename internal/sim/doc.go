// Package sim provides the deterministic discrete-event simulation engine
// underneath every DirQ run — the OMNeT++ substitute of the paper's §7
// evaluation setup.
//
// In the repo's layer map this is the bottom of the substrate: every other
// layer (topology, radio, lmac, core, scenario, serve) schedules its work
// here. The engine keys events by (time, priority, sequence) and pairs with
// a seeded, splittable random number generator (rng.go), so every
// simulation run is exactly reproducible from its seed, for any worker
// count. The field model's one exponential is Exp (exp.go), a Go replay
// of the FMA path of math.Exp's amd64 assembly that rounds alike on every
// host; math.Exp itself rounds differently without AVX and FMA or under
// GODEBUG=cpu.fma=off. Architectures whose compiler fuses multiply-adds
// in plain Go (arm64, ppc64le, s390x, riscv64) may still drift; ROADMAP
// item 1 tracks that.
//
// On amd64 with AVX2, vecmath.go's assembly kernels replace the hot
// scalar loops of the field model: the polar transform behind
// RNG.NormFloat64s; PlumeSums, the field's Gaussian plume terms with
// their cull tests and Exp four lanes at a time (it also needs FMA); and
// SweepWindows, the activity sweep's per-pair window test. Each replays
// the scalar operations lane for lane, so no output bit depends on
// whether they run.
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
