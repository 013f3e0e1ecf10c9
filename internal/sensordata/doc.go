// Package sensordata generates the synthetic environmental dataset the
// paper's evaluation uses: "A synthetic dataset with 4 sensor types has been
// generated where sensor values of nodes located close to one another are
// spatially related. The generated sensor data is also related in the
// temporal dimension." (§7)
//
// Values are produced by a smooth physical field per sensor type — a base
// level, a diurnal sinusoid, and a set of Gaussian "plumes" whose centres
// random-walk across the deployment area — plus small per-node AR(1) noise.
// Nearby nodes therefore see similar values (spatial correlation) and each
// node's series evolves smoothly (temporal correlation).
//
// In the repo's layer map this is the environment layer: core samples the
// generator every epoch (§7 "each sensor acquires a reading every time
// unit") and query resolves ground truth against the same field.
//
// Field evaluation is lazy and activity-gated: Step advances only the
// field state (drawing exactly the RNG sequence it always drew, so runs
// stay bit-reproducible) while the per-node evaluation happens on first
// read. That evaluation calls Exp only for plume terms that can change
// the sum: a term below a quarter-ulp of the node's positive base is
// skipped, which leaves the result bit-identical. ActiveSweep conservatively
// refutes hysteresis escapes in O(1) per (node, type) — exact
// diurnal/noise/bias terms plus an accumulated bound on plume motion — in
// one pass over every pair, so a quiescent network evaluates nothing and
// pays only that scan on top of Step's per-pair noise draw.
//
// Callers that know which pairs they will read evaluate them in one batch
// with EvalNodes: core before its epoch worklist is applied, query before
// it reads a query's candidates. The batch works type-major on chunks of
// nodes, computing each stale pair's base, exponent arguments and cull
// decisions as the single-pair path does, then all surviving exponentials
// in one vector pass (sim.Exps), then each node's sum in plume order. So
// values, snapshots and the evaluation count are bit for bit those of the
// lazy reads it replaces, and the per-node loop stays the unbatched
// oracle.
package sensordata
