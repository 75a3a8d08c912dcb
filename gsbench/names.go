package main

// endToEndNames are the metrics an untraced run prints, on every
// workload. BENCHMARK.json lists the same names with their units and
// regression bounds.
var endToEndNames = []string{
	"setup_s",
	"ingest_edges_per_s",
	"ingest_frame_p50_ms",
	"ingest_frame_p99_ms",
	"query_per_s",
	"query_batch_p50_ms",
	"query_batch_p99_ms",
	"avg_rel_error",
	"effective_query_ratio",
	"ok_op_ratio",
	"sketch_resident_mb",
}

// layerTarget says which end-to-end metric a per-layer metric should move,
// and on which workload ("" when it has no end-to-end target).
type layerTarget struct {
	name, unit, moves string
}

// perLayer lists the metrics a traced run prints, in module order, each
// with the end-to-end metric and workload it should move.
var perLayer = []layerTarget{
	{"wire.decode_ingest_ns_per_edge", "ns", "ingest_edges_per_s @ ingest-wire"},
	{"wire.decode_query_ns_per_query", "ns", "query_per_s @ query-wire"},
	{"wire.encode_results_ns_per_query", "ns", "query_per_s @ query-wire"},
	{"wire.bytes_per_edge", "B", ""},
	{"wire.bytes_per_result", "B", ""},

	{"server.wire_ingest_apply_p50_ms", "ms", "ingest_frame_p50_ms @ ingest-wire, chain-mixed"},
	{"server.wire_ingest_apply_p99_ms", "ms", "ingest_frame_p99_ms @ ingest-wire, chain-mixed"},
	{"server.wire_query_apply_p50_ms", "ms", "query_batch_p50_ms @ query-wire"},
	{"server.wire_query_apply_p99_ms", "ms", "query_batch_p99_ms @ query-wire"},
	{"server.http_query_p50_ms", "ms", "query_batch_p50_ms @ chain-mixed"},
	{"server.http_query_p99_ms", "ms", "query_batch_p99_ms @ chain-mixed"},
	{"server.unattributed_share", "ratio", "all frame and batch latencies @ all workloads"},

	{"engine.try_ingest_ns_per_edge", "ns", "ingest_edges_per_s @ ingest-wire"},
	{"engine.try_ingest_allocs_per_edge", "allocs", "ingest_edges_per_s @ ingest-wire"},
	{"engine.query_batch_ns_per_query", "ns", "query_per_s @ query-wire"},
	{"engine.query_batch_allocs_per_query", "allocs", "query_per_s @ query-wire"},
	{"engine.open_s", "s", "setup_s @ ingest-wire, chain-mixed"},
	{"engine.restore_s", "s", "setup_s @ query-wire"},
	{"engine.repartition_ms", "ms", "query_batch_p99_ms @ chain-mixed"},

	{"ingest.hop_ns_per_edge", "ns", "ingest_edges_per_s @ ingest-wire (flat @ query-wire)"},
	{"ingest.shed_ratio", "ratio", "ingest_frame_p99_ms @ ingest-wire (flat @ query-wire)"},
	{"ingest.queue_fill_mean", "ratio", "ingest_frame_p99_ms @ ingest-wire (flat @ query-wire)"},
	{"ingest.flush_ms", "ms", "ingest_edges_per_s @ ingest-wire (flat @ query-wire)"},

	{"core.concurrent_update_ns_per_edge", "ns", "ingest_edges_per_s @ ingest-wire"},
	{"core.concurrent_update_allocs_per_edge", "allocs", "ingest_edges_per_s @ ingest-wire"},
	{"core.update_ns_per_edge", "ns", "ingest_edges_per_s @ ingest-wire"},
	{"core.update_allocs_per_edge", "allocs", "ingest_edges_per_s @ ingest-wire"},
	{"core.route_ns_per_edge", "ns", "ingest_edges_per_s @ ingest-wire"},
	{"core.route_allocs_per_edge", "allocs", "ingest_edges_per_s @ ingest-wire"},
	{"core.estimate_ns_per_query", "ns", "query_per_s @ query-wire"},
	{"core.estimate_allocs_per_query", "allocs", "query_per_s @ query-wire"},
	{"core.concurrent_estimate_ns_per_query", "ns", "query_per_s @ query-wire"},
	{"core.concurrent_estimate_allocs_per_query", "allocs", "query_per_s @ query-wire"},
	{"core.build_partitioning_ms", "ms", "setup_s @ ingest-wire"},
	{"core.snapshot_read_ms", "ms", "setup_s @ query-wire"},
	{"core.snapshot_read_alloc_mb", "MiB", "setup_s @ query-wire"},
	{"core.partitions", "count", ""},
	{"core.outlier_read_share", "ratio", "avg_rel_error @ all workloads"},
	{"core.bound_violation_ratio", "ratio", "ok_op_ratio @ all workloads"},

	{"sketch.countmin_update_ns_per_key", "ns", "ingest_edges_per_s @ ingest-wire"},
	{"sketch.countmin_estimate_ns_per_key", "ns", "query_per_s @ query-wire"},

	{"hashutil.edge_key_ns", "ns", "ingest_edges_per_s, query_per_s"},
	{"hashutil.mod61_ns", "ns", "ingest_edges_per_s, query_per_s"},

	{"query.accumulate_ns_per_result", "ns", "query_batch_p99_ms @ chain-mixed"},
	{"query.answer_subgraph_ns_per_query", "ns", ""},

	{"adapt.chain_estimate_ns_per_query", "ns", "query_batch_p50_ms @ chain-mixed"},
	{"adapt.chain_update_ns_per_edge", "ns", "ingest_edges_per_s @ chain-mixed"},
	{"adapt.generations", "count", "query_batch_p99_ms @ chain-mixed"},

	{"compact.reload_ms", "ms", "query_batch_p99_ms @ chain-mixed"},
	{"compact.reloads", "count", "query_batch_p99_ms @ chain-mixed"},
	{"compact.reload_request_share", "ratio", "query_batch_p99_ms @ chain-mixed"},
	{"compact.spill_ms", "ms", "ingest_edges_per_s @ chain-mixed"},
	{"compact.fold_ms", "ms", "ingest_edges_per_s @ chain-mixed"},
	{"compact.compactions", "count", "sketch_resident_mb @ chain-mixed"},

	{"trace.overhead_share", "ratio", ""},
}

var perLayerNames = func() []string {
	out := make([]string, len(perLayer))
	for i, l := range perLayer {
		out[i] = l.name
	}
	return out
}()
