// Package query defines the one-shot range queries users inject into the
// network (§3: "Acquire all temperature readings that are currently between
// 22°C and 25°C"), the ground-truth resolver that determines which nodes a
// query *should* reach, NodeSet (the dense bitset that holds every node
// set of a query: should, received, sources), a workload generator that targets the paper's
// 20/40/60 % node-involvement levels, and the root-side predictor of hourly
// query counts that feeds the EHr estimate broadcasts.
//
// In the repo's layer map this is the workload layer: scenario injects
// Workload-generated queries during batch runs, and serve resolves client
// queries through the same ground-truth path (§7.1).
package query
