package main

// metric names one reported number. BENCHMARK.json at the repository root
// lists the same names, units and directions (bench_test.go keeps the two
// in step) and adds the regression bound of each end-to-end metric.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd is what a user of the simulator or of dirqd sees. Every
// workload reports every one of them: throughput counts node-epochs in the
// simulation workloads and answered queries in dirqd-http; latency is one
// simulated epoch there and one query here (README.md).
var endToEnd = []metric{
	{"throughput_per_cpu_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"bytes_per_node", "B", "lower"},
}

// perLayer is reported by a traced run. Layers are named after the
// repository's packages; a layer a workload does not reach reads 0.
var perLayer = []metric{
	{"topology.place_s", "s", "lower"},
	{"topology.tree_s", "s", "lower"},
	{"scenario.build_s", "s", "lower"},
	{"scenario.build_other_s", "s", "lower"},
	{"scenario.step_us.p50", "us", "lower"},
	{"scenario.step_us.p99", "us", "lower"},
	{"scenario.snapshot_ms", "ms", "lower"},
	{"scenario.allocs_per_epoch", "count/epoch", "lower"},
	{"scenario.alloc_bytes_per_epoch", "B/epoch", "lower"},
	{"scenario.gc_cycles", "count", "lower"},
	{"query.inject_epoch_extra_us", "us", "lower"},
	{"atc.extra_s", "s", "lower"},
	{"sensordata.evals_per_epoch", "count/epoch", "lower"},
	{"sensordata.sweep_hits_per_epoch", "count/epoch", "lower"},
	{"sensordata.sweep_refutations_per_epoch", "count/epoch", "higher"},
	{"sensordata.sweep_hit_ratio", "ratio", "lower"},
	{"core.active_nodes_per_epoch", "count/epoch", "lower"},
	{"core.active_fraction", "ratio", "lower"},
	{"core.tuples_sent_per_epoch", "count/epoch", "lower"},
	{"core.retunes", "count", "lower"},
	{"lmac.frames_full_per_epoch", "count/epoch", "lower"},
	{"lmac.frames_quiet_per_epoch", "count/epoch", "lower"},
	{"lmac.frames_silent_per_epoch", "count/epoch", "higher"},
	{"lmac.messages_flushed_per_epoch", "count/epoch", "lower"},
	{"radio.tx_per_epoch", "count/epoch", "lower"},
	{"radio.rx_per_epoch", "count/epoch", "lower"},
	{"sim.events_dispatched_per_epoch", "count/epoch", "lower"},
	{"sim.ticker_runs_per_epoch", "count/epoch", "lower"},
	{"sim.heap_depth_peak", "count", "lower"},
	{"script.run_s", "s", "lower"},
	{"script.events_applied", "count", "higher"},
	{"serve.client_us.p50", "us", "lower"},
	{"serve.client_us.p99", "us", "lower"},
	{"serve.handler_us.p50", "us", "lower"},
	{"serve.handler_us.p99", "us", "lower"},
	{"serve.transport_us.p50", "us", "lower"},
	{"serve.submit_us.mean", "us", "lower"},
	{"serve.submit_us.p99", "us", "lower"},
	{"serve.codec_us.mean", "us", "lower"},
	{"serve.shard_epochs_per_s", "1/s", "higher"},
	{"serve.queries_shed", "count", "lower"},
	{"serve.query_failures", "count", "lower"},
	{"serve.query_p99_ms", "ms", "lower"},
	{"serve.gen_lag_ms.p99", "ms", "lower"},
	// "<layer>.self_s": the self time of every layer the benchmark wraps
	// spans around.
	{"bench.self_s", "s", "lower"},
	{"topology.self_s", "s", "lower"},
	{"scenario.self_s", "s", "lower"},
	{"script.self_s", "s", "lower"},
	{"serve.self_s", "s", "lower"},
	{"trace_overhead_pct", "%", "lower"},
	// The reference kernel's median time (ref.go): how fast the host ran.
	{"bench.ref_us", "us", "lower"},
}
