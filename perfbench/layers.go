package main

// perLayer are the metrics every traced run prints, on every workload. A
// layer that does no work in a workload reads 0 there. README.md maps
// each to the end-to-end metric and workload it should move.
var perLayer = []def{
	{"sim.ns_per_block", "ns", "lower"},
	{"sim.allocs_per_block", "count", "lower"},
	{"sim.alloc_bytes_per_block", "B", "lower"},
	{"sim.txs_per_block", "count", "higher"},

	{"archive.write_blocks_per_s", "blocks/s", "higher"},
	{"archive.bytes_per_block", "B", "lower"},
	{"archive.encode.ns_per_block", "ns", "lower"},
	{"archive.encode.allocs_per_block", "count", "lower"},
	{"archive.decode.ns_per_block", "ns", "lower"},
	{"archive.decode.allocs_per_block", "count", "lower"},
	{"archive.decode.alloc_bytes_per_block", "B", "lower"},
	{"archive.decode.util", "ratio", "higher"},
	{"archive.read_bytes_per_block", "B", "lower"},
	{"archive.column.headers.ns_per_block", "ns", "lower"},
	{"archive.column.txs.ns_per_block", "ns", "lower"},
	{"archive.column.receipts.ns_per_block", "ns", "lower"},
	{"archive.column.logs.ns_per_block", "ns", "lower"},
	{"archive.column.flashbots.ns_per_block", "ns", "lower"},
	{"archive.column.observed.ns_per_block", "ns", "lower"},
	{"archive.block_lookup.ns", "ns", "lower"},
	{"archive.block_lookup.allocs", "count", "lower"},

	{"detect.ns_per_block", "ns", "lower"},
	{"detect.allocs_per_block", "count", "lower"},
	{"detect.util", "ratio", "higher"},
	{"detect.extractions", "count", "higher"},

	{"profit.ns_per_extraction", "ns", "lower"},
	{"profit.allocs_per_extraction", "count", "lower"},

	{"privinfer.ns_per_tx", "ns", "lower"},
	{"privinfer.classified_txs", "count", "higher"},

	{"measure.aggregate.ns_per_block", "ns", "lower"},
	{"measure.build.ns", "ns", "lower"},
	{"measure.build.util", "ratio", "higher"},
	{"measure.partial.ns_per_month", "ns", "lower"},
	{"measure.merge.ns_per_month", "ns", "lower"},
	{"measure.render_text.ns", "ns", "lower"},
	{"measure.encode_json.ns_per_artifact", "ns", "lower"},

	{"stream.feed_ns_per_block", "ns", "lower"},
	{"stream.snapshot_ns", "ns", "lower"},
	{"stream.allocs_per_block", "count", "lower"},

	{"query.cold_ms", "ms", "lower"},
	{"query.cold.self_ms", "ms", "lower"},
	{"query.partial_warm_ms", "ms", "lower"},
	{"query.cached_us", "us", "lower"},
	{"query.not_modified_us", "us", "lower"},
	{"query.block_ms", "ms", "lower"},
	{"query.serve_p99_ms", "ms", "lower"},
	{"query.serve_max_rps", "1/s", "higher"},
	{"query.queue_wait_ms", "ms", "lower"},
	{"query.generator_late_ms", "ms", "lower"},
	{"query.report_hit_ratio", "ratio", "higher"},
	{"query.partial_hit_ratio", "ratio", "higher"},
	{"query.segment_hit_ratio", "ratio", "higher"},
	{"query.allocs_per_req.cached", "count", "lower"},
	{"query.allocs_per_req.not_modified", "count", "lower"},
	{"query.allocs_per_req.partial_warm", "count", "lower"},
	{"query.allocs_per_req.block", "count", "lower"},

	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},

	{"obs.trace_overhead_pct", "%", "lower"},
	{"obs.min_op_coverage", "ratio", "higher"},
}
