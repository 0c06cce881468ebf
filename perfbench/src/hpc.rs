//! `hpc-pipeline`: in-memory `Pipeline::with_pool` compress then decompress
//! of large scientific arrays, across every registered codec at the default
//! 64K-element block. Kernels do nearly all the work here; pool, framing,
//! disk and socket do little.

use crate::host::CpuTicks;
use crate::inputs::{fingerprint, source, window_axis0, Rng};
use crate::report::{FailKind, Metrics, Tally};
use crate::trace::{in_span, Tracer};
use crate::{maybe_traced, pool_metrics, stats, Phase, Scale};
use fcbench_core::{Compressor, FloatData, Pipeline, PoolConfig, Precision, WorkerPool};
use std::sync::Arc;
use std::time::Instant;

/// Msg-bt and num-brain are 1-D traces, astro-mhd a mostly-empty 3-D
/// field, hurricane a 3-D single-precision field with NaN runs.
pub const DATASETS: [&str; 4] = ["msg-bt", "num-brain", "astro-mhd", "hurricane"];

/// Latency limit of one pipeline call, for `goodput_ops_s` (calls within
/// the limit per second of call time).
const LIMIT_MS: f64 = 5_000.0;

pub struct Inputs {
    arrays: Vec<FloatData>,
    codecs: Vec<Arc<dyn Compressor>>,
    /// `(codec, array)` pairs, in registry order. A fixed order keeps the
    /// allocator's history, and so `peak_rss_mb`, the same from run to run.
    cells: Vec<(usize, usize)>,
}

impl Inputs {
    pub fn new(seed: u64, scale: &Scale) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let arrays: Vec<FloatData> = DATASETS
            .iter()
            .map(|name| window_axis0(&source(name, scale.hpc_elems), scale.hpc_elems, &mut rng))
            .collect();
        let registry = fcbench_bench::codecs::full_registry();
        let codecs: Vec<Arc<dyn Compressor>> = registry.codecs().cloned().collect();
        let mut cells = Vec::new();
        for (c, entry) in registry.iter().enumerate() {
            for (a, data) in arrays.iter().enumerate() {
                if !not_applicable(entry.name(), data) {
                    cells.push((c, a));
                }
            }
        }
        Inputs {
            arrays,
            codecs,
            cells,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        fingerprint(self.arrays.iter().map(FloatData::bytes))
    }

    /// The block the per-codec kernel timings use.
    pub fn sample_block(&self) -> &FloatData {
        &self.arrays[0]
    }
}

/// BUFF bounds values by their decimal precision and refuses non-finite
/// ones: hurricane's NaN runs make it one of the paper's "-" cells.
fn not_applicable(codec: &str, data: &FloatData) -> bool {
    codec == "buff" && has_non_finite(data)
}

fn has_non_finite(data: &FloatData) -> bool {
    match data.desc().precision {
        Precision::Single => data
            .bytes()
            .chunks_exact(4)
            .any(|b| !f32::from_le_bytes([b[0], b[1], b[2], b[3]]).is_finite()),
        Precision::Double => data.bytes().chunks_exact(8).any(|b| {
            !f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]).is_finite()
        }),
    }
}

/// Whole passes over every cell, until another pass would overrun
/// `seconds` (at least one).
pub fn run(inputs: &Inputs, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Phase {
    let pool = Arc::new(WorkerPool::new(PoolConfig::for_host()));
    let pipelines: Vec<Pipeline> = inputs
        .codecs
        .iter()
        .map(|c| Pipeline::with_pool(maybe_traced(c, tracer), Arc::clone(&pool)))
        .collect();
    let t_ref = tracer.map(|t| &**t);
    let mut tally = Tally::default();
    let mut frame = Vec::new();
    let mut out = FloatData::scratch();
    // Per cell and direction, the call's ms in each pass; per pass, its
    // steal share.
    let mut calls: Vec<[Vec<f64>; 2]> = vec![Default::default(); inputs.cells.len()];
    let mut pass_steal = Vec::new();
    let mut stored = vec![0usize; inputs.cells.len()];
    let (mut total_s, mut samples, mut req) = (0.0, 0, 0);
    let t0 = Instant::now();
    loop {
        let t_pass = Instant::now();
        let ticks = CpuTicks::now();
        for (i, &(c, a)) in inputs.cells.iter().enumerate() {
            req += 1;
            let (data, pipeline) = (&inputs.arrays[a], &pipelines[c]);
            let call = |name, f: &mut dyn FnMut() -> fcbench_core::Result<()>| {
                let t = Instant::now();
                let r = in_span(t_ref, name, 0, req, |id| {
                    if let Some(tr) = t_ref {
                        tr.set_ambient(id, req);
                    }
                    f()
                });
                (r, t.elapsed().as_secs_f64() * 1e3)
            };
            let (r, c_ms) = call("pipeline.compress", &mut || {
                pipeline.compress_into(data, &mut frame).map(drop)
            });
            if !tally.check(&r) {
                continue;
            }
            let (r, d_ms) = call("pipeline.decompress", &mut || {
                pipeline.decompress_into(&frame, &mut out)
            });
            if !tally.check(&r) {
                continue;
            }
            if out != *data {
                tally.fail(FailKind::Mismatch);
                continue;
            }
            stored[i] = frame.len();
            calls[i][0].push(c_ms);
            calls[i][1].push(d_ms);
            total_s += (c_ms + d_ms) / 1e3;
            samples += 2;
        }
        pass_steal.push(CpuTicks::now().steal_since(&ticks));
        if t0.elapsed().as_secs_f64() + t_pass.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let passes = pass_steal.len();
    drop(pipelines);

    // A call's time is its median over the passes, each pass's times scaled
    // by the share of CPU time the host let the VM run in it. A cell that
    // failed in any pass is left out.
    let (mut raw, mut comp_ms, mut decomp_ms, mut stored_total) = (0usize, 0.0, 0.0, 0usize);
    let mut call_ms = Vec::new();
    let run_time = |ms: &[f64]| {
        let scaled: Vec<f64> = ms
            .iter()
            .zip(&pass_steal)
            .map(|(t, s)| t * (1.0 - s))
            .collect();
        stats::median(&scaled)
    };
    for (i, [c, d]) in calls
        .iter()
        .enumerate()
        .filter(|(_, [c, _])| c.len() == passes)
    {
        let (c, d) = (run_time(c), run_time(d));
        raw += inputs.arrays[inputs.cells[i].1].bytes().len();
        stored_total += stored[i];
        comp_ms += c;
        decomp_ms += d;
        call_ms.extend([c, d]);
    }
    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();
    e2e.set("compress_mb_s", raw as f64 / comp_ms / 1e3, "MB/s");
    e2e.set("decompress_mb_s", raw as f64 / decomp_ms / 1e3, "MB/s");
    e2e.set("compression_ratio", raw as f64 / stored_total as f64, "x");
    layers.set("p50_ms", stats::quantile(&call_ms, 0.5), "ms");
    layers.set("p99_ms", stats::quantile(&call_ms, 0.99), "ms");
    let good = call_ms.iter().filter(|&&l| l <= LIMIT_MS).count();
    layers.set(
        "goodput_ops_s",
        good as f64 / (comp_ms + decomp_ms) * 1e3,
        "1/s",
    );

    layers.set("run.passes", passes as f64, "count");
    layers.set("run.samples", samples as f64, "count");
    pool_metrics(&pool, wall, passes, &mut layers);
    Phase {
        e2e,
        layers,
        tally,
        cost_s: total_s / passes as f64,
    }
}
