//! The metric names `BENCHMARK.json` declares, with their units.

/// End-to-end metrics, reported by every workload's untraced run. The
/// wall-clock op latency is the median over whole input cycles, so a
/// burst of load from other tenants of the host moves it less than a
/// mean over the run would (see the README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_latency_s", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // bus-paper
    ("basis.instantiate_s", "s"),
    ("basis.templates", "count"),
    ("basis.functions", "count"),
    ("quad.pairs", "count"),
    ("quad.pair_integral_ns", "ns"),
    ("core.assembly_seq_s", "s"),
    ("core.assembly_threads_s", "s"),
    ("core.assembly_mp_s", "s"),
    ("linalg.solve_s", "s"),
    ("par.threads_efficiency", "ratio"),
    ("par.mp_efficiency", "ratio"),
    ("par.threads_imbalance", "ratio"),
    // chip-eco
    ("geom.diff_s", "s"),
    ("geom.partition_s", "s"),
    ("chip.reextract_s", "s"),
    ("chip.all_hit_s", "s"),
    ("chip.windows_extracted", "count"),
    ("chip.windows_touched", "count"),
    ("chip.window_busy_s", "s"),
    ("exec.queue_wait_s", "s"),
    ("core.template_cache.hit_ratio", "ratio"),
    ("core.template_cache.entries", "count"),
    // serve-mix
    ("serve.daemon_setup_s.hot", "s"),
    ("serve.daemon_setup_s.sweep", "s"),
    ("serve.daemon_setup_s.krylov", "s"),
    ("serve.daemon_solve_s.hot", "s"),
    ("serve.daemon_solve_s.sweep", "s"),
    ("serve.daemon_solve_s.krylov", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.transport_s", "s"),
    ("serve.codec_s", "s"),
    ("router.relay_s", "s"),
    ("router.forwards.r0", "count"),
    ("router.forwards.r1", "count"),
    ("exec.coalesced_ratio", "ratio"),
    ("core.template_cache.hits", "count"),
    ("core.template_cache.misses", "count"),
    ("core.template_cache.evictions", "count/op"),
    ("linalg.krylov_iterations", "count"),
    ("serve.latency_p50_s.hot", "s"),
    ("serve.latency_p50_s.sweep", "s"),
    ("serve.latency_p50_s.krylov", "s"),
    ("serve.time_share.hot", "ratio"),
    ("serve.time_share.sweep", "ratio"),
    ("serve.time_share.krylov", "ratio"),
    // every workload
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_s", "s"),
    ("latency_cycle_spread", "ratio"),
    ("failed_ratio", "ratio"),
    ("host.cpu_util", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.covered_ratio", "ratio"),
    ("trace.spans", "count"),
    ("latency_samples", "count"),
    ("latency_tail_pct", "%"),
    ("latency_tail_s", "s"),
];
