// Package scenario assembles a complete, reproducible DirQ simulation from
// one Config: topology placement, spanning tree, LMAC, synthetic dataset,
// the DirQ protocol with either fixed-δ or ATC threshold control, a
// coverage-targeted query workload, and the flooding-baseline cost
// accounting the paper compares against.
//
// In the repo's layer map this is assembly: the one place the substrate
// (sim, topology, radio), MAC (lmac), environment (sensordata), protocol
// (core, atc), workload (query), baseline (flood) and extensions are wired
// into a runnable whole. experiments and serve both build runs here, each
// run on a fresh event engine from Build.
package scenario
