//! The names `BENCHMARK.json` fixes: workloads, end-to-end metrics,
//! per-layer metrics, with their units. Later issues quote these; a
//! unit test keeps this table and `BENCHMARK.json` identical.

/// `(name, why)` of each workload, in the order `run` goes through them.
pub const WORKLOADS: [&str; 6] = [
    "cold-paper",
    "cold-mesh",
    "query-mesh",
    "serve-lookup",
    "serve-batch",
    "sort-exec",
];

/// `(name, unit)`; the same six for every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, grouped by layer.
pub const PER_LAYER: [(&str, &str); 67] = [
    // mctop::alg::probe
    ("alg.probe.collect_us", "us"),
    ("alg.probe.collect_parallel2_us", "us"),
    ("alg.probe.detect_smt_us", "us"),
    ("alg.probe.pairs", "count"),
    ("alg.probe.probes", "count"),
    // mctop::alg::{cluster, components, validate, build}
    ("alg.cluster.cluster_us", "us"),
    ("alg.cluster.normalize_us", "us"),
    ("alg.cluster.levels", "count"),
    ("alg.components.build_us", "us"),
    ("alg.validate.validate_us", "us"),
    ("alg.build.assemble_us", "us"),
    // mctop::enrich
    ("enrich.enrich_all_us", "us"),
    // mctop::desc + the serde_json shim
    ("desc.to_string_us", "us"),
    ("desc.from_str_full_us", "us"),
    ("json.parse_value_us", "us"),
    ("desc.bytes", "bytes"),
    // mctop::registry
    ("registry.view_cold_us", "us"),
    ("registry.view_hit_ns", "ns"),
    ("registry.rebuild4_us", "us"),
    // mctop::view
    ("view.new_us", "us"),
    ("view.resident_bytes_fresh", "bytes"),
    ("view.resident_bytes_touched", "bytes"),
    ("view.socket_latency_ns", "ns"),
    ("view.socket_hops_ns", "ns"),
    ("view.cross_bandwidth_ns", "ns"),
    ("view.closest_sockets_ns", "ns"),
    ("view.get_latency_ns", "ns"),
    ("view.max_latency_between_ns", "ns"),
    ("view.block_p99_us", "us"),
    ("view.dense_block_us", "us"),
    ("view.selected_over_dense", "ratio"),
    // mctop-place / mctop-alloc
    ("place.with_view_us", "us"),
    ("alloc.resolve_us", "us"),
    // mctop-client
    ("wire.encode_request_ns", "ns"),
    ("wire.decode_request_ns", "ns"),
    ("wire.encode_response_ns", "ns"),
    ("wire.decode_response_ns", "ns"),
    ("client.send_us", "us"),
    ("client.recv_us", "us"),
    // mctopd
    ("eval.direct_us", "us"),
    ("serve.transport_dispatch_us", "us"),
    ("server.requests_per_batch", "ratio"),
    ("server.bytes_read_per_op", "bytes"),
    ("server.bytes_written_per_op", "bytes"),
    ("server.error_responses", "count"),
    ("server.protocol_errors", "count"),
    ("serve.op_p99_us", "us"),
    ("serve.op_p999_us", "us"),
    // mctop-runtime
    ("executor.arm_us", "us"),
    ("executor.one_task_scope_us", "us"),
    ("executor.empty_run_us", "us"),
    ("executor.tasks_per_op", "count"),
    ("executor.parks_per_op", "count"),
    ("executor.unparks_per_op", "count"),
    ("executor.steals_per_op", "count"),
    // mctop-sort
    ("sort.quicksort_chunk_us", "us"),
    ("sort.merge_scalar_melems_s", "Melem/s"),
    ("sort.merge_simd_melems_s", "Melem/s"),
    ("sort.scalar_on_us", "us"),
    ("sort.baseline_us", "us"),
    ("sort.simd_over_scalar", "ratio"),
    ("sort.scratch_pooled_elems", "count"),
    // the harness itself
    ("setup.prepare_s", "s"),
    ("setup.warmup_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("run.timed_ops", "count"),
    ("run.timed_s", "s"),
];
