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
// The plume-motion bound is local where the field is wide. A plume (σ ≈
// 20 m) moves a fraction of a metre per epoch, so on a field of several
// hundred metres most nodes are far from every plume and their readings
// hardly move. When the field's shorter side spans at least
// gridMinReaches plume reaches (6 × the largest σ a type draws, 180 m
// with the default parameters, so from 720 m), NewGenerator lays a grid of
// cells over it, each node holds its cell's index, and Step charges a
// plume's move only to the cells within its reach: each such cell takes
// the least of three bounds on the plume term's change there (see
// chargeCells), and every node takes a far-field term that is smaller by
// orders of magnitude. A node's bound is the global sum plus its cell's.
// A smaller field keeps one sum for every node, with no grid, no per-node
// index and no per-epoch cell work: there some plume reaches nearly every
// cell, so the grid would cost work and refute nothing more.
//
// Callers that know which pairs they will read evaluate them in one batch
// with EvalNodes: core before its epoch worklist is applied, query before
// it reads a query's candidates. The batch works type-major on chunks of
// nodes, computing each stale pair's base and cull slack as the
// single-pair path does, then the plume sums in sim.PlumeSums: four nodes
// at a time in its AVX2 kernel (distance, both cull tests and the kept
// terms' exponentials, added in plume order), and through sim.PlumeSum,
// the plume sum eval itself calls, for groups the kernel cannot take (a
// kept exponent outside its range) and on hosts without it. So values,
// snapshots and the evaluation count are bit for bit those of the lazy
// reads it replaces. ActiveSweep's per-pair test runs four pairs at a
// time in sim.SweepWindows where the host has AVX2, gathering the pairs'
// cell terms where the field has a grid.
package sensordata
