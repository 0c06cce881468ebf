//! The benchmark's workloads and the metrics every run prints, with units.
//! `BENCHMARK.json` lists the same names; a test holds the two together.

/// Workload names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["hpc-pipeline", "column-store", "serve-openloop"];

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "frac"),
    ("compression_ratio", "x"),
    ("compress_mb_s", "MB/s"),
    ("decompress_mb_s", "MB/s"),
];

/// Per-layer metrics other than the per-codec ones, printed by every traced
/// run of every workload (0 where the workload does not use the layer).
pub const LAYERS: [(&str, &str); 63] = [
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("goodput_ops_s", "1/s"),
    ("error_rate", "frac"),
    ("fail.timeout", "count"),
    ("fail.busy", "count"),
    ("fail.io", "count"),
    ("fail.corrupt", "count"),
    ("fail.mismatch", "count"),
    ("fail.other", "count"),
    ("host.memcpy_gb_s", "GB/s"),
    ("host.loopback_rtt_us", "us"),
    ("host.steal_frac", "frac"),
    ("stream.crc32_mb_s", "MB/s"),
    ("pool.jobs", "count"),
    ("pool.queue_wait_us.p50", "us"),
    ("pool.queue_wait_us.p99", "us"),
    ("pool.exec_us.p50", "us"),
    ("pool.busy_frac", "frac"),
    ("pool.drain_stalls", "count"),
    ("codec.compress_s", "s"),
    ("codec.decompress_s", "s"),
    ("pipeline.compress_s", "s"),
    ("pipeline.compress_self_s", "s"),
    ("pipeline.decompress_s", "s"),
    ("pipeline.decompress_self_s", "s"),
    ("container.write_s", "s"),
    ("container.write_self_s", "s"),
    ("container.commit_s", "s"),
    ("container.finish_sync_s", "s"),
    ("container.open_s", "s"),
    ("container.decode_s", "s"),
    ("container.decode_self_s", "s"),
    ("container.records", "count"),
    ("container.read_ahead_stalls", "count"),
    ("container.not_clean", "count"),
    ("dataframe.scan_s", "s"),
    ("dataframe.rows_matched", "count"),
    ("serve.rt_p50_ms.low", "ms"),
    ("serve.rt_p99_ms.low", "ms"),
    ("serve.rt_p50_ms.high", "ms"),
    ("serve.rt_p99_ms.high", "ms"),
    ("serve.client.compress_us.p50", "us"),
    ("serve.client.compress_us.p99", "us"),
    ("serve.client.decompress_us.p50", "us"),
    ("serve.client.decompress_us.p99", "us"),
    ("serve.client.self_s", "s"),
    ("gen.send_delay_us.p99", "us"),
    ("gen.late_ms.max", "ms"),
    ("serve.phase.decode_us.p50", "us"),
    ("serve.phase.engine_us.p50", "us"),
    ("serve.phase.engine_us.p99", "us"),
    ("serve.phase.reply_write_us.p50", "us"),
    ("serve.requests.shed", "count"),
    ("serve.requests.failed", "count"),
    ("serve.timeouts.read", "count"),
    ("serve.timeouts.write", "count"),
    ("serve.timeouts.idle", "count"),
    ("client.retries", "count"),
    ("run.passes", "count"),
    ("run.samples", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric name with its unit: [`LAYERS`], then
/// `codecs.<name>.{compress_mb_s,decompress_mb_s,ratio}` for each codec.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for name in fcbench_bench::codecs::full_registry().names() {
        v.push((format!("codecs.{name}.compress_mb_s"), "MB/s"));
        v.push((format!("codecs.{name}.decompress_mb_s"), "MB/s"));
        v.push((format!("codecs.{name}.ratio"), "x"));
    }
    v
}
