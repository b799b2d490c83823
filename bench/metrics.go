package main

// The metric names, units and directions BENCHMARK.json declares.  A
// run with --trace 0 reports exactly endToEnd, a run with --trace 1
// exactly perLayer — every name on every workload, 0 where the layer
// does not run (cluster.* on a single node, durable.* on the
// memstore, per-shape latencies on analytic_ns).

type metricDecl struct {
	name, unit, better string
}

var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"qps", "ops/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p95_ms", "ms", "lower"},
}

var perLayer = []metricDecl{
	{"client.sent", "count", "higher"},
	{"client.ok", "count", "higher"},
	{"client.failed", "count", "lower"},
	{"client.dropped", "count", "lower"},
	{"client.fail_ratio", "ratio", "lower"},
	{"client.mean_ms", "ms", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"client.max_ms", "ms", "lower"},
	{"client.late_p95_ms", "ms", "lower"},
	{"client.resp_bytes_per_op", "bytes", "lower"},
	{"client.star_p50_ms", "ms", "lower"},
	{"client.chain_p50_ms", "ms", "lower"},
	{"client.tree_p50_ms", "ms", "lower"},
	{"client.flower_p50_ms", "ms", "lower"},

	{"nsserve.http_floor_us", "us", "lower"},
	{"nsserve.residual_us", "us", "lower"},
	{"nsserve.plan_cache_hit_ratio", "ratio", "higher"},
	{"nsserve.plan_cache_evictions", "count", "lower"},
	{"nsserve.requests_503", "count", "lower"},
	{"nsserve.requests_504", "count", "lower"},
	{"nsserve.governor_trips", "count", "lower"},
	{"nsserve.pool_saturations", "count", "lower"},
	{"nsserve.planner_replans", "count", "lower"},
	{"nsserve.cpu_ms_per_op", "ms", "lower"},
	{"nsserve.rss_mb", "MiB", "lower"},

	{"parser.parse_us", "us", "lower"},
	{"plan.prepare_us", "us", "lower"},
	{"plan.probes", "count", "lower"},
	{"plan.qerror_p95", "ratio", "lower"},

	{"exec.eval_us", "us", "lower"},
	{"exec.eval_p95_us", "us", "lower"},
	{"exec.rows_out_per_op", "count", "lower"},
	{"exec.allocs_per_op", "count", "lower"},
	{"exec.bytes_per_op", "bytes", "lower"},
	{"exec.serial_eval_us", "us", "lower"},
	{"exec.pool_speedup", "ratio", "higher"},
	{"sparql.ns_delta_us", "us", "lower"},

	{"rdf.scan_us", "us", "lower"},
	{"rdf.rows_scanned_per_op", "count", "lower"},
	{"rdf.count_us", "us", "lower"},
	{"rdf.load_triples_per_s", "1/s", "higher"},

	{"durable.commit_us", "us", "lower"},
	{"durable.wal_bytes_per_triple", "bytes", "lower"},
	{"durable.wal_syncs", "count", "lower"},
	{"durable.snapshots", "count", "lower"},
	{"durable.disk_bytes_per_triple", "bytes", "lower"},
	{"durable.recover_s", "s", "lower"},

	{"cluster.gather_us", "us", "lower"},
	{"cluster.local_eval_us", "us", "lower"},
	{"cluster.gathered_triples_per_op", "count", "lower"},
	{"cluster.scan_rpcs_per_op", "count", "lower"},
	{"cluster.scan_bytes_per_op", "bytes", "lower"},
	{"cluster.parse_scan_us", "us", "lower"},
	{"cluster.merge_us", "us", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"cluster.hedges_wasted", "count", "lower"},
	{"cluster.ejections", "count", "lower"},
	{"nscoord.residual_us", "us", "lower"},
	{"nscoord.cpu_ms_per_op", "ms", "lower"},
	{"shard.cpu_ms_per_op", "ms", "lower"},

	{"trace.overhead_pct", "%", "lower"},
	{"trace.negative_residual_ratio", "ratio", "lower"},
	{"bench.oracle_s", "s", "lower"},
	{"bench.build_s", "s", "lower"},
}
