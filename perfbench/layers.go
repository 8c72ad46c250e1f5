package main

// layer groups the traced run's metrics of one module with the
// prediction written down before measuring: which end-to-end metrics a
// change in the layer should move, and on which workloads.
type layer struct {
	module  string
	moves   string
	on      string
	metrics [][2]string // name, unit
}

// layers lists every per-layer metric, in the order BENCHMARK.json
// lists them (a test keeps the two in step).
var layers = []layer{
	{"cmd/dpserve", "query_p50_ms, server_cpu_us_per_query, setup_s", "node-point, node-batch-hot", [][2]string{
		{"dpserve.roundtrip_us", "us"}, // closed loop, one connection
		{"dpserve.json_decode_us", "us"},
		{"dpserve.json_encode_us", "us"},
		{"dpserve.unaccounted_us", "us"}, // round trip minus the in-process stage sum
		{"dpserve.put_ms", "ms"},
		{"dpserve.ready_ms", "ms"},
		{"dpserve.req_bytes", "bytes"},
		{"dpserve.resp_bytes", "bytes"},
	}},
	{"internal/cache", "query_p50_ms, server_cpu_us_per_query", "node-batch-hot (hits), node-point (cost only)", [][2]string{
		{"cache.hit_ratio", "ratio"}, // from the node's /metrics hits and misses
		{"cache.get_ns", "ns"},
		{"cache.put_ns", "ns"},
	}},
	{"internal/core", "query_p50_ms, setup_s", "node-batch-hot, cluster-scatter (views)", [][2]string{
		{"core.ug_query_ns_p50", "ns"}, // per workload rect
		{"core.ug_query_ns_p99", "ns"},
		{"core.ag_query_ns_p50", "ns"},
		{"core.ag_query_ns_p99", "ns"},
		{"core.agview_query_ns_p50", "ns"},
		{"core.agview_query_ns_p99", "ns"},
		{"core.build_ug_ms", "ms"},
		{"core.build_ag_ms", "ms"},
	}},
	{"internal/pool", "query_p50_ms, server_cpu_us_per_query", "node-batch-hot", [][2]string{
		{"core.loop64_us", "us"},  // a plain Query loop over 64 rects
		{"pool.batch64_us", "us"}, // dpgrid.QueryBatch over the same 64
	}},
	{"internal/shard", "query_p50_ms, setup_s", "node-batch-hot, cluster-scatter", [][2]string{
		{"shard.query_ns", "ns"},
		{"shard.fanout_mean", "shards"},
		{"shard.materialized", "count"},
		{"shard.build_ms", "ms"},
	}},
	{"internal/codec, internal/mmapfile", "setup_s, dpserve.put_ms -> query_p99_ms", "all (setup), node-batch-hot (PUT)", [][2]string{
		{"codec.encode_ms", "ms"},
		{"codec.decode_ms", "ms"},
		{"codec.lazy_decode_ms", "ms"},
		{"codec.release_bytes", "bytes"},
		{"mmapfile.map_ms", "ms"},
	}},
	{"internal/datasets (ingest)", "setup_s", "all", [][2]string{
		{"ingest.csv_scan_ms", "ms"},
		{"ingest.points_per_s", "1/s"},
	}},
	{"internal/cluster", "query_p50_ms, query_p99_ms, failed_frac", "cluster-scatter", [][2]string{
		{"cluster.router_query_us", "us"},      // Router.Query against the live backends
		{"cluster.backend_roundtrip_us", "us"}, // direct /v1/cluster/query
		{"cluster.merge_overhead_us", "us"},    // router time minus the slowest backend
		{"cluster.backends_per_query", "count"},
		{"cluster.tiles_per_rect", "count"},
		{"cluster.backend_errors", "count"},
		{"cluster.failovers", "count"},
		{"cluster.shed", "count"},
	}},
	{"whole path (open loop)", "nothing: they are the latencies themselves, too noisy on a shared host to gate", "all", [][2]string{
		{"e2e.query_p50_ms", "ms"}, // windowed as in an untraced run; spans are recorded after done
		{"e2e.query_p99_ms", "ms"},
	}},
	{"process", "server_cpu_us_per_query", "all", [][2]string{
		{"proc.cpu_us_per_query.node", "us"},
		{"proc.cpu_us_per_query.router", "us"},
		{"proc.cpu_us_per_query.backend", "us"},
		{"loadgen.late_p99_ms", "ms"}, // a validity check, not a target
	}},
	{"perfbench (tracing)", "nothing: what the traced run adds to each stage it times", "all", [][2]string{
		{"trace.span_ns", "ns"}, // an empty stage timed as a span, less the bare call
	}},
}

// endToEnd lists the end-to-end metrics of an untraced run.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"server_cpu_us_per_query", "us"},
	{"server_rss_mb", "MB"},
}
