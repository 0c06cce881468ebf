//! Layer-attributed benchmark for FCBench-rs.
//!
//! One command runs a named workload from a seed, checks every output, and
//! prints every metric by name with its unit (see `README.md` for the
//! workloads, the metrics and which layer moves which end-to-end metric).
//! Each layer is measured from outside, by timing calls into its public
//! functions and by reading the telemetry the program already exports.

pub mod column;
pub mod host;
pub mod hpc;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;

use fcbench_core::{Compressor, FloatData, WorkerPool};
use report::{FailKind, Metrics, Tally};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPS: usize = 5;

/// Input sizes. [`Scale::full`] is the benchmark; tests use [`Scale::tiny`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Elements per hpc-pipeline array.
    pub hpc_elems: usize,
    /// Rows per column-store column.
    pub column_rows: usize,
    /// Elements of a small and a large serve request.
    pub serve_small: usize,
    pub serve_large: usize,
    /// Open-loop arrival rates, round-trips per second over all connections.
    pub rate_low: f64,
    pub rate_high: f64,
    /// Server request ceiling in bytes (below a large request forces the
    /// refusals the failure-accounting test counts).
    pub serve_max_request_bytes: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            hpc_elems: 2 << 20,
            column_rows: 1 << 20,
            serve_small: 8192,
            serve_large: 131_072,
            rate_low: serve::RATE_LOW,
            rate_high: serve::RATE_HIGH,
            serve_max_request_bytes: fcbench_serve::ServeConfig::default().max_request_bytes,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            hpc_elems: 1 << 14,
            column_rows: 1 << 14,
            serve_small: 256,
            serve_large: 2048,
            rate_low: 200.0,
            rate_high: 400.0,
            serve_max_request_bytes: fcbench_serve::ServeConfig::default().max_request_bytes,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where span logs and container files go.
    pub out_dir: PathBuf,
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Workload-specific end-to-end metrics (all but set-up, memory and
    /// `ok_rate`, which the runner adds).
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
    /// The phase's headline cost in seconds (lower is better); the traced
    /// and untraced costs give the tracing overhead.
    pub cost_s: f64,
}

/// The result of a whole run.
#[derive(Debug)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
    /// A fingerprint of the generated inputs.
    pub inputs: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed() == 0
    }
}

enum Inputs {
    Hpc(hpc::Inputs),
    Column(column::Inputs),
    Serve(serve::Inputs),
}

impl Inputs {
    fn make(workload: &str, seed: u64, scale: &Scale) -> Option<Inputs> {
        Some(match workload {
            "hpc-pipeline" => Inputs::Hpc(hpc::Inputs::new(seed, scale)),
            "column-store" => Inputs::Column(column::Inputs::new(seed, scale)),
            "serve-openloop" => Inputs::Serve(serve::Inputs::new(seed, scale)),
            _ => return None,
        })
    }

    fn run(&self, opts: &Opts, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Phase {
        match self {
            Inputs::Hpc(i) => hpc::run(i, seconds, tracer),
            Inputs::Column(i) => column::run(i, seconds, tracer, &opts.out_dir),
            Inputs::Serve(i) => serve::run(i, seconds, tracer),
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            Inputs::Hpc(i) => i.fingerprint(),
            Inputs::Column(i) => i.fingerprint(),
            Inputs::Serve(i) => i.fingerprint(),
        }
    }

    fn sample_block(&self) -> &FloatData {
        match self {
            Inputs::Hpc(i) => i.sample_block(),
            Inputs::Column(i) => i.sample_block(),
            Inputs::Serve(i) => i.sample_block(),
        }
    }
}

/// Run one workload. `None` for an unknown workload name.
pub fn run(opts: &Opts, scale: &Scale) -> Option<Outcome> {
    let t = Instant::now();
    let inputs = Inputs::make(&opts.workload, opts.seed, scale)?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    std::fs::create_dir_all(&opts.out_dir).ok()?;

    let ticks = host::CpuTicks::now();
    let (mut phase, mut layers) = if opts.trace {
        let plain = inputs.run(opts, opts.seconds / 2.0, None);
        let tracer = Tracer::new();
        let mut traced = inputs.run(opts, opts.seconds / 2.0, Some(&tracer));
        let spans = tracer.take();
        let mut layers = std::mem::take(&mut traced.layers);
        let passes = layers.get("run.passes").unwrap_or(1.0) as usize;
        span_metrics(&spans, passes, &mut layers);
        layers.set("trace.spans", spans.len() as f64, "count");
        layers.set(
            "trace.overhead_pct",
            (traced.cost_s / plain.cost_s - 1.0) * 100.0,
            "%",
        );
        let path = opts.out_dir.join(format!("spans-{}.jsonl", opts.workload));
        if let Err(e) = trace::write_jsonl(&spans, &path) {
            traced.tally.attempt_failed(FailKind::of(&e.into()));
        }
        traced.tally.merge(&plain.tally);
        codec_kernels(inputs.sample_block(), &mut layers, &mut traced.tally);
        (traced, layers)
    } else {
        let mut phase = inputs.run(opts, opts.seconds, None);
        let layers = std::mem::take(&mut phase.layers);
        (phase, layers)
    };

    let steal = host::CpuTicks::now().steal_since(&ticks);
    layers.set("host.steal_frac", steal, "frac");
    let mut e2e = std::mem::take(&mut phase.e2e);
    e2e.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    // The repeats come after the measured phase: freeing several sets of
    // inputs before it made the allocator's state, and so peak memory,
    // differ from run to run.
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let again = Inputs::make(&opts.workload, opts.seed, scale);
        setup.push(t.elapsed().as_secs_f64());
        drop(again);
    }
    e2e.set("setup_s", stats::median(&setup), "s");
    match host::calibrate() {
        Ok(m) => layers.extend(m),
        Err(e) => phase.tally.attempt_failed(FailKind::of(&e.into())),
    }
    e2e.set("ok_rate", 1.0 - phase.tally.error_rate(), "frac");
    phase.tally.metrics(&mut layers);
    Some(Outcome {
        e2e,
        layers,
        tally: phase.tally,
        inputs: inputs.fingerprint(),
    })
}

/// The metrics the result line carries: every end-to-end metric for an
/// untraced run, every per-layer metric for a traced one (0 where the
/// workload does not use the layer).
pub fn contract_metrics(outcome: &Outcome, trace: bool) -> Metrics {
    let mut m = Metrics::default();
    if trace {
        for (name, unit) in spec::per_layer() {
            let value = outcome.layers.get(&name).unwrap_or(0.0);
            m.set(name, value, unit);
        }
    } else {
        for (name, unit) in spec::END_TO_END {
            let value = outcome
                .e2e
                .get(name)
                .expect("every workload sets every end-to-end metric");
            m.set(name, value, unit);
        }
    }
    m
}

/// `codecs.<name>.*`: direct single-thread `compress_into` /
/// `decompress_into` of one block per registered codec, median of repeats.
fn codec_kernels(block: &FloatData, m: &mut Metrics, tally: &mut Tally) {
    const MIN_REPS: usize = 3;
    const MIN_SECONDS: f64 = 0.03;
    let raw = block.bytes().len() as f64;
    let mut payload = Vec::new();
    let mut out = FloatData::scratch();
    for entry in fcbench_bench::codecs::full_registry().iter() {
        let codec = entry.codec();
        let time = |f: &mut dyn FnMut() -> bool| {
            let mut times = Vec::new();
            let t0 = Instant::now();
            while times.len() < MIN_REPS || t0.elapsed().as_secs_f64() < MIN_SECONDS {
                let t = Instant::now();
                if !f() {
                    return None;
                }
                times.push(t.elapsed().as_secs_f64());
            }
            Some(raw / stats::median(&times) / 1e6)
        };
        let c = time(&mut || tally.check(&codec.compress_into(block, &mut payload)));
        let d = c.and_then(|_| {
            time(&mut || tally.check(&codec.decompress_into(&payload, block.desc(), &mut out)))
        });
        if d.is_some() && out.bytes() != block.bytes() {
            tally.fail(FailKind::Mismatch);
        }
        let name = entry.name();
        m.set(
            format!("codecs.{name}.compress_mb_s"),
            c.unwrap_or(0.0),
            "MB/s",
        );
        m.set(
            format!("codecs.{name}.decompress_mb_s"),
            d.unwrap_or(0.0),
            "MB/s",
        );
        let ratio = if d.is_some() {
            raw / payload.len() as f64
        } else {
            0.0
        };
        m.set(format!("codecs.{name}.ratio"), ratio, "x");
    }
}

/// The pool layer's own telemetry over one phase: jobs per pass, queue
/// wait and execution quantiles, busy share of `wall_s` × threads, and
/// drain stalls.
pub fn pool_metrics(pool: &WorkerPool, wall_s: f64, passes: usize, m: &mut Metrics) {
    let snap = pool.telemetry().snapshot();
    let hist = |name: &str| snap.histogram(name).cloned().unwrap_or_default();
    let wait = hist("pool.queue_wait");
    let exec = hist("pool.exec");
    let us = |ns: u64| ns as f64 / 1e3;
    m.set(
        "pool.jobs",
        (exec.count() / passes.max(1) as u64) as f64,
        "count",
    );
    m.set("pool.queue_wait_us.p50", us(wait.p50()), "us");
    m.set("pool.queue_wait_us.p99", us(wait.p99()), "us");
    m.set("pool.exec_us.p50", us(exec.p50()), "us");
    m.set(
        "pool.busy_frac",
        exec.sum() as f64 / 1e9 / (wall_s * pool.threads() as f64),
        "frac",
    );
    m.set(
        "pool.drain_stalls",
        snap.counter("pool.drain.stalls").unwrap_or(0) as f64,
        "count",
    );
}

/// Wrap `codec` for tracing when a tracer is given.
pub fn maybe_traced(
    codec: &Arc<dyn Compressor>,
    tracer: Option<&Arc<Tracer>>,
) -> Arc<dyn Compressor> {
    match tracer {
        Some(t) => trace::TracedCodec::wrap(codec, t),
        None => Arc::clone(codec),
    }
}

/// Span rows: span name, per-layer total metric, per-layer self metric.
const SPAN_ROWS: [(&str, &str, Option<&str>); 10] = [
    ("codec.compress", "codec.compress_s", None),
    ("codec.decompress", "codec.decompress_s", None),
    (
        "pipeline.compress",
        "pipeline.compress_s",
        Some("pipeline.compress_self_s"),
    ),
    (
        "pipeline.decompress",
        "pipeline.decompress_s",
        Some("pipeline.decompress_self_s"),
    ),
    (
        "container.write",
        "container.write_s",
        Some("container.write_self_s"),
    ),
    ("container.commit", "container.commit_s", None),
    ("container.finish_sync", "container.finish_sync_s", None),
    ("container.open", "container.open_s", None),
    (
        "container.decode",
        "container.decode_s",
        Some("container.decode_self_s"),
    ),
    ("dataframe.scan", "dataframe.scan_s", None),
];

/// Per-layer span totals and self times, in seconds per pass, plus the
/// serve client's span quantiles and its time not covered by codec spans.
fn span_metrics(spans: &[trace::Span], passes: usize, m: &mut Metrics) {
    let per_pass = |ns: u64| ns as f64 / 1e9 / passes.max(1) as f64;
    let times = trace::self_times(spans);
    for (span, total, self_name) in SPAN_ROWS {
        let (_, tot, own) = times.get(span).copied().unwrap_or_default();
        m.set(total, per_pass(tot), "s");
        if let Some(s) = self_name {
            m.set(s, per_pass(own), "s");
        }
    }
    let codec_spans = ["codec.compress", "codec.decompress"];
    let mut client_self = 0;
    for (span, metric) in [
        ("serve.client.compress", "serve.client.compress_us"),
        ("serve.client.decompress", "serve.client.decompress_us"),
    ] {
        let us: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        m.set(format!("{metric}.p50"), stats::quantile(&us, 0.5), "us");
        m.set(format!("{metric}.p99"), stats::quantile(&us, 0.99), "us");
        client_self += trace::uncovered_ns(spans, span, &codec_spans);
    }
    m.set("serve.client.self_s", per_pass(client_self), "s");
}
