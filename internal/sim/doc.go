// Package sim provides the deterministic epoch clock underneath every
// DirQ run — the OMNeT++ substitute of the paper's §7 evaluation setup.
//
// In the repo's layer map this is the bottom of the substrate: every other
// layer (topology, radio, lmac, core, scenario, serve) runs its work from
// here. The paper's model is epoch-driven (one reading and one LMAC frame
// per epoch, an estimate every hour, a query every QueryInterval epochs),
// so the engine is a list of tickers and nothing else. Engine.AddTicker
// registers a handler at a priority; Engine.RunUntil walks the clock tick
// by tick and calls every ticker in ascending priority, with registration
// order breaking ties. Work due only at some epochs (query injection,
// bucket sampling) is a ticker that checks Now. The engine pairs with a
// seeded, splittable random number generator (rng.go), so every
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
package sim
