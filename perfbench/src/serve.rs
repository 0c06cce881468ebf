//! `serve-openloop`: the in-situ compression-service scenario. A loopback
//! FCS1 server runs on a host-sized pool and two connections send it gorilla
//! round-trips: a COMPRESS, then a DECOMPRESS of the reply. The run has three
//! phases, each on a fresh server and pool. The `low` and `high` phases
//! follow seeded Poisson open-loop schedules at fixed rates, and time each
//! round-trip from when it was due, so a stall also counts against the
//! requests queued behind it. The `peak` phase sends 512 KiB requests back
//! to back (closed loop) and measures what the server sustains. Only this workload crosses
//! the socket, protocol, admission and reply layers, and only here does pool
//! queueing show as tail latency.

use crate::host::CpuTicks;
use crate::inputs::{fingerprint, source, window_axis0, Rng};
use crate::report::{FailKind, Metrics, Tally};
use crate::trace::{in_span, Tracer};
use crate::{maybe_traced, pool_metrics, stats, Phase, Scale};
use fcbench_core::{CodecRegistry, FloatData, PoolConfig, RegistryEntry, WorkerPool};
use fcbench_serve::{Client, ClientConfig, ServeConfig, Server, StatsV2};
use fcbench_telemetry::Registry;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CODEC: &str = "gorilla";
/// Client connections (and client threads): one per core of the 2-core
/// host the rates were set on, so the load generator does not measure the
/// scheduler.
pub const CONNECTIONS: usize = 2;
/// Fixed arrival rates, round-trips per second over all connections. Two
/// connections sending the mix back to back sustained ~1400–1600/s on the
/// 2-core host the benchmark was defined on; `low` is about 30% of that and
/// `high` about 50%. Rates of 60% and more built backlogs that did not
/// drain in some runs on that shared host, whose other tenants take CPU for
/// seconds at a time. Absolute on purpose; never recalibrated per run.
pub const RATE_LOW: f64 = 450.0;
pub const RATE_HIGH: f64 = 750.0;
/// Share of large (512 KiB) requests; the rest are small (32 KiB).
const LARGE_SHARE: f64 = 0.2;
/// Elements per COMPRESS block.
const BLOCK_ELEMS: usize = 8192;
/// Distinct seed-chosen windows of each request size.
const SMALL_WINDOWS: usize = 64;
const LARGE_WINDOWS: usize = 16;
/// Latency limit of a round-trip, for `goodput_ops_s`.
const LIMIT_MS: f64 = 50.0;
/// Throughput, latency quantiles and goodput are taken per window of this
/// many seconds, and the median over windows is reported. A window holds
/// ~750 `high` round-trips and ~1400 `peak` ones.
const WINDOW_S: f64 = 1.0;
/// Short closed-loop phases that make up the `peak` phase.
const PEAK_REPEATS: usize = 3;
/// Pause between starting the server and the first due time.
const LEAD_IN: Duration = Duration::from_millis(20);
/// How long past the end of its schedule a connection keeps sending. A
/// request still unsent then is counted as a timeout, which bounds the
/// run when the server cannot keep up with the offered rate.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// One scheduled request: due time after the phase start, and the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    pub due_s: f64,
    pub large: bool,
    pub window: usize,
}

/// The seeded Poisson schedule of one connection: `rate` per second for
/// `seconds`.
pub fn schedule(seed: u64, stream: u64, rate: f64, seconds: f64) -> Vec<Request> {
    let mut rng = Rng::new(seed, stream);
    let mut out = Vec::new();
    let mut t = rng.exp_gap(rate);
    while t < seconds {
        let large = rng.unit() < LARGE_SHARE;
        let window = rng.below(if large { LARGE_WINDOWS } else { SMALL_WINDOWS });
        out.push(Request {
            due_s: t,
            large,
            window,
        });
        t += rng.exp_gap(rate);
    }
    out
}

pub struct Inputs {
    seed: u64,
    scale: Scale,
    small: Vec<FloatData>,
    large: Vec<FloatData>,
}

impl Inputs {
    pub fn new(seed: u64, scale: &Scale) -> Inputs {
        let src = source("citytemp", 16 * scale.serve_large);
        let mut rng = Rng::new(seed, 1);
        let mut windows = |n, elems| -> Vec<FloatData> {
            (0..n)
                .map(|_| window_axis0(&src, elems, &mut rng))
                .collect()
        };
        Inputs {
            seed,
            scale: *scale,
            small: windows(SMALL_WINDOWS, scale.serve_small),
            large: windows(LARGE_WINDOWS, scale.serve_large),
        }
    }

    pub fn fingerprint(&self) -> u64 {
        let order: Vec<u8> = schedule(self.seed, 20, self.scale.rate_high, 1.0)
            .iter()
            .flat_map(|r| r.due_s.to_le_bytes())
            .collect();
        fingerprint(
            self.small
                .iter()
                .chain(&self.large)
                .map(FloatData::bytes)
                .chain([&order[..]]),
        )
    }

    pub fn sample_block(&self) -> &FloatData {
        &self.large[0]
    }
}

/// One round-trip that returned and verified.
#[derive(Debug, Clone, Copy)]
struct Done {
    /// Round-trip from due time.
    rt_ms: f64,
    raw: f64,
    stored: f64,
    compress_s: f64,
    decompress_s: f64,
}

/// What one connection measured.
#[derive(Default)]
struct Conn {
    tally: Tally,
    /// Each success, keyed by its due time in the phase.
    done: Vec<(f64, Done)>,
    send_delay_us: Vec<f64>,
}

/// The steal share of each whole `WINDOW_S` window of the `seconds` after
/// `start` (one window if `seconds` is shorter), sampled at the window
/// boundaries.
fn sample_steal(start: Instant, seconds: f64) -> Vec<f64> {
    let windows = (seconds / WINDOW_S).floor().max(1.0) as usize;
    let mut ticks = Vec::with_capacity(windows + 1);
    for k in 0..=windows {
        let at = start + Duration::from_secs_f64((k as f64 * WINDOW_S).min(seconds));
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        ticks.push(CpuTicks::now());
    }
    ticks.windows(2).map(|w| w[1].steal_since(&w[0])).collect()
}

/// How a phase offers its requests.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// Seeded Poisson arrivals at this many round-trips per second.
    Open(f64),
    /// Back to back on every connection, 512 KiB requests only.
    Closed,
}

/// Rate of a closed phase's plan: only its windows are used, and no
/// connection gets through this many per second.
const CLOSED_PLAN_RATE: f64 = 5000.0;

/// The plan of one connection in `load`.
fn plan(seed: u64, stream: u64, load: Load, seconds: f64) -> Vec<Request> {
    match load {
        Load::Open(rate) => schedule(seed, stream, rate / CONNECTIONS as f64, seconds),
        // Large requests only: small ones are mostly hand-off and wake-up
        // time, which the host's other tenants stretched by up to 50%.
        Load::Closed => schedule(seed, stream, CLOSED_PLAN_RATE, seconds)
            .into_iter()
            .map(|r| Request {
                large: true,
                window: r.window % LARGE_WINDOWS,
                ..r
            })
            .collect(),
    }
}

/// Send `plan` on one connection. Open loop (`until` is `None`): each
/// request waits for its due time and is timed from it. Closed loop: send
/// back to back until `until`, each request timed from its send.
#[allow(clippy::too_many_arguments)]
fn connection(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    plan: &[Request],
    start: Instant,
    until: Option<Instant>,
    tracer: Option<&Tracer>,
    req_base: u64,
    client_reg: &Arc<Registry>,
) -> Conn {
    let mut c = Conn::default();
    let config = ClientConfig {
        telemetry: Some(Arc::clone(client_reg)),
        ..ClientConfig::default()
    };
    let connect = |tally: &mut Tally| {
        let conn = Client::connect_with(addr, config.clone());
        tally.check(&conn);
        conn.ok()
    };
    let mut client = connect(&mut c.tally);
    let last_due = Duration::from_secs_f64(plan.last().map_or(0.0, |r| r.due_s));
    let cutoff = start + last_due + DRAIN_GRACE;
    for (i, r) in plan.iter().enumerate() {
        let now = Instant::now();
        let due = match until {
            Some(end) if now > end => break,
            Some(_) => now,
            None if now > cutoff => {
                c.tally.attempt_failed(FailKind::Timeout);
                continue;
            }
            None => {
                let due = start + Duration::from_secs_f64(r.due_s);
                if let Some(wait) = due.checked_duration_since(now) {
                    std::thread::sleep(wait);
                }
                due
            }
        };
        let sent = Instant::now();
        c.send_delay_us
            .push(sent.duration_since(due).as_secs_f64() * 1e6);
        if client.is_none() {
            client = connect(&mut c.tally);
        }
        let Some(cl) = client.as_mut() else { continue };
        let data = if r.large {
            &inputs.large[r.window]
        } else {
            &inputs.small[r.window]
        };
        let req = req_base + i as u64;
        let t = Instant::now();
        let stream = in_span(tracer, "serve.client.compress", 0, req, |_| {
            cl.compress(CODEC, data, BLOCK_ELEMS)
        });
        let c_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = match &stream {
            Ok(s) => in_span(tracer, "serve.client.decompress", 0, req, |_| {
                cl.decompress(s)
            }),
            Err(e) => Err(e.clone()),
        };
        let d_s = t.elapsed().as_secs_f64();
        // A round-trip is one attempt: it fails on the first error.
        if !c.tally.check(&back) {
            // The failed exchange may have desynced the framing.
            client = None;
            continue;
        }
        if back.ok().as_ref() != Some(data) {
            c.tally.fail(FailKind::Mismatch);
            continue;
        }
        c.done.push((
            due.saturating_duration_since(start).as_secs_f64(),
            Done {
                rt_ms: due.elapsed().as_secs_f64() * 1e3,
                raw: data.bytes().len() as f64,
                stored: stream.map_or(0, |s| s.len()) as f64,
                compress_s: c_s,
                decompress_s: d_s,
            },
        ));
    }
    c
}

/// Everything one phase measured.
#[derive(Default)]
struct PhaseRun {
    conns: Vec<Conn>,
    /// Steal share of each window of the schedule.
    steal: Vec<f64>,
    wall_s: f64,
    layers: Metrics,
    tally: Tally,
}

impl PhaseRun {
    fn done(&self) -> Vec<(f64, Done)> {
        self.conns
            .iter()
            .flat_map(|c| c.done.iter().copied())
            .collect()
    }

    /// Median over windows of `per_window(round-trips, available share)`.
    fn windowed(&self, per_window: impl Fn(&[Done], f64) -> f64) -> f64 {
        stats::windowed(&self.done(), WINDOW_S, &self.steal, per_window)
    }

    /// Median over windows of the `q`-quantile round-trip, in time the
    /// host let the VM run.
    fn rt_quantile(&self, q: f64) -> f64 {
        self.windowed(|d, avail| {
            stats::quantile(&d.iter().map(|d| d.rt_ms).collect::<Vec<_>>(), q) * avail
        })
    }
}

fn run_phase(
    inputs: &Inputs,
    load: Load,
    seconds: f64,
    stream: u64,
    tracer: Option<&Arc<Tracer>>,
) -> PhaseRun {
    let mut out = PhaseRun::default();
    let pool = Arc::new(WorkerPool::new(PoolConfig::for_host()));
    let full = fcbench_bench::codecs::full_registry();
    let registry = match tracer {
        None => full,
        Some(_) => {
            let codec = full.get(CODEC).expect("registered codec");
            CodecRegistry::new().with(
                RegistryEntry::from_arc(maybe_traced(&codec, tracer))
                    .block_capable()
                    .thread_scalable(),
            )
        }
    };
    let config = ServeConfig {
        max_request_bytes: inputs.scale.serve_max_request_bytes,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(registry), Arc::clone(&pool), config);
    if !out.tally.check(&server) {
        return out;
    }
    let Ok(server) = server else { return out };
    let addr = server.local_addr();
    let running = server.spawn();
    let client_reg = Arc::new(Registry::new());
    let t_ref = tracer.map(|t| &**t);
    let start = Instant::now() + LEAD_IN;
    let until = matches!(load, Load::Closed).then(|| start + Duration::from_secs_f64(seconds));
    out.conns = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|k| {
                let plan = plan(inputs.seed, stream + k, load, seconds);
                let client_reg = &client_reg;
                s.spawn(move || {
                    let req_base = (stream + k) << 32;
                    connection(
                        addr, inputs, &plan, start, until, t_ref, req_base, client_reg,
                    )
                })
            })
            .collect();
        out.steal = sample_steal(start, seconds);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.wall_s = start.elapsed().as_secs_f64().max(seconds);

    let stats = Client::connect(addr).and_then(|mut admin| admin.stats_v2());
    if out.tally.check(&stats) {
        if let Ok(v2) = &stats {
            server_metrics(v2, &mut out.layers);
        }
    }
    let shutdown = running.shutdown();
    out.tally.check(&shutdown);
    pool_metrics(&pool, out.wall_s, 1, &mut out.layers);
    out.layers.set(
        "client.retries",
        client_reg.snapshot().counter("client.retries").unwrap_or(0) as f64,
        "count",
    );
    out
}

/// STATS_V2 phase histograms and failure counters.
fn server_metrics(v2: &StatsV2, m: &mut Metrics) {
    let q = |name: &str, q: f64| {
        v2.histogram(name)
            .map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
    };
    m.set(
        "serve.phase.decode_us.p50",
        q("serve.phase.decode", 0.5),
        "us",
    );
    m.set(
        "serve.phase.engine_us.p50",
        q("serve.phase.engine", 0.5),
        "us",
    );
    m.set(
        "serve.phase.engine_us.p99",
        q("serve.phase.engine", 0.99),
        "us",
    );
    m.set(
        "serve.phase.reply_write_us.p50",
        q("serve.phase.reply_write", 0.5),
        "us",
    );
    for name in [
        "serve.requests.shed",
        "serve.requests.failed",
        "serve.timeouts.read",
        "serve.timeouts.write",
        "serve.timeouts.idle",
    ] {
        m.set(name, v2.counter(name).unwrap_or(0) as f64, "count");
    }
}

/// The `low`, `high` and `peak` phases, a third of `seconds` each. The
/// end-to-end throughputs and latencies are the `peak` phase's, where the
/// host's CPUs stay busy; goodput is the `high` phase's. Open-loop latencies
/// and the server's own telemetry (from the `high` phase) are per-layer
/// metrics.
pub fn run(inputs: &Inputs, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Phase {
    let third = seconds / 3.0;
    let low = run_phase(inputs, Load::Open(inputs.scale.rate_low), third, 10, tracer);
    let mut high = run_phase(
        inputs,
        Load::Open(inputs.scale.rate_high),
        third,
        20,
        tracer,
    );
    // The peak phase runs as several short phases, each on a fresh server
    // and pool, so one placement of threads on the host's CPUs does not
    // set the run's figure.
    let peaks: Vec<PhaseRun> = (0..PEAK_REPEATS as u64)
        .map(|i| {
            run_phase(
                inputs,
                Load::Closed,
                third / PEAK_REPEATS as f64,
                30 + 2 * i,
                tracer,
            )
        })
        .collect();
    let over_peaks =
        |f: &dyn Fn(&PhaseRun) -> f64| stats::median(&peaks.iter().map(f).collect::<Vec<_>>());

    let mut tally = Tally::default();
    for p in [&low, &high].into_iter().chain(&peaks) {
        tally.merge(&p.tally);
        for c in &p.conns {
            tally.merge(&c.tally);
        }
    }
    let mut layers = std::mem::take(&mut high.layers);
    let bytes_per = |d: &[Done], f: fn(&Done) -> f64| {
        d.iter().map(|d| d.raw).sum::<f64>() / d.iter().map(f).sum::<f64>()
    };
    let mut e2e = Metrics::default();
    let compress = over_peaks(&|p| p.windowed(|d, avail| bytes_per(d, |d| d.compress_s) / avail));
    let decompress =
        over_peaks(&|p| p.windowed(|d, avail| bytes_per(d, |d| d.decompress_s) / avail));
    e2e.set("compress_mb_s", compress / 1e6, "MB/s");
    e2e.set("decompress_mb_s", decompress / 1e6, "MB/s");
    // Over the open-loop phases, whose requests the seed fixes.
    let scheduled: Vec<Done> = [&low, &high]
        .iter()
        .flat_map(|p| p.done())
        .map(|(_, d)| d)
        .collect();
    e2e.set(
        "compression_ratio",
        bytes_per(&scheduled, |d| d.stored),
        "x",
    );
    layers.set("p50_ms", over_peaks(&|p| p.rt_quantile(0.5)), "ms");
    layers.set("p99_ms", over_peaks(&|p| p.rt_quantile(0.99)), "ms");
    // Arrivals are fixed per wall-clock second, so goodput is not scaled.
    let good =
        high.windowed(|d, _| d.iter().filter(|d| d.rt_ms <= LIMIT_MS).count() as f64 / WINDOW_S);
    layers.set("goodput_ops_s", good, "1/s");

    for (p, name) in [(&low, "low"), (&high, "high")] {
        layers.set(format!("serve.rt_p50_ms.{name}"), p.rt_quantile(0.5), "ms");
        layers.set(format!("serve.rt_p99_ms.{name}"), p.rt_quantile(0.99), "ms");
    }
    let delays: Vec<f64> = high
        .conns
        .iter()
        .flat_map(|c| c.send_delay_us.iter().copied())
        .collect();
    layers.set(
        "gen.send_delay_us.p99",
        stats::quantile(&delays, 0.99),
        "us",
    );
    let late_ms = delays.iter().copied().fold(0.0, f64::max) / 1e3;
    layers.set("gen.late_ms.max", late_ms, "ms");
    layers.set("run.passes", 1.0, "count");
    let peak_rt: Vec<f64> = peaks
        .iter()
        .flat_map(|p| p.done())
        .map(|(_, d)| d.rt_ms)
        .collect();
    let samples = scheduled.len() + peak_rt.len();
    layers.set("run.samples", samples as f64, "count");
    let mean_s = peak_rt.iter().sum::<f64>() / peak_rt.len().max(1) as f64 / 1e3;
    Phase {
        e2e,
        layers,
        tally,
        cost_s: mean_s,
    }
}
