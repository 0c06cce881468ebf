//! Machine-readable perf snapshots: `BENCH_<pr>.json`.
//!
//! The `fcbench bench-json` subcommand measures steady-state
//! `compress_into`/`decompress_into` throughput for every registered codec
//! over a small synthetic corpus and writes one JSON file. CI regenerates
//! it on a tiny budget each run, so successive PRs leave a diffable perf
//! trajectory (the numbers are only comparable within one machine/run —
//! the value is the *relative* movement between codecs and PRs).
//!
//! The JSON is hand-assembled: the workspace's `serde` is an offline
//! no-op shim, and the schema is two levels deep.

use crate::codecs::full_registry;
use fcbench_core::pool::{PoolConfig, WorkerPool};
use fcbench_core::{Error, FloatData};
use fcbench_datasets::{find, generate};
use fcbench_serve::ServeConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// Snapshot schema identifier, bumped on layout changes (v2 added the
/// FCDB2 `container` write/read section; v3 added the `env` block and the
/// `serve` section with loopback request p50/p99 at several connection
/// counts; v4 added `failed` and `failed_by_kind` to each serve row, whose
/// `rps` counts successful requests only). Consumers diffing across PRs
/// should key on this field — earlier snapshots simply lack the newer
/// sections, so backfill-safe tooling treats a missing section as "not
/// measured", never an error.
pub const SCHEMA: &str = "fcbench-perf-v4";

/// Datasets making up the corpus: one representative per domain, matching
/// the `throughput` bench's selection.
pub const CORPUS: [&str; 4] = ["msg-bt", "citytemp", "acs-wht", "tpcDS-store"];

struct CodecRates {
    name: &'static str,
    compress_mb_s: f64,
    decompress_mb_s: f64,
}

/// Best-of-`reps` throughput in MB/s (decimal) for one closure.
fn rate_mb_s(raw_bytes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    raw_bytes as f64 / best / 1e6
}

/// Measure every codec over the corpus. Codecs that reject a dataset (the
/// paper's "-" cells) simply skip it; a codec that rejects the whole
/// corpus is omitted from the snapshot.
fn measure(elems: usize, reps: usize) -> Vec<CodecRates> {
    let registry = full_registry();
    let corpus: Vec<FloatData> = CORPUS
        .iter()
        .map(|name| generate(&find(name).expect("catalog dataset"), elems))
        .collect();

    let mut rows = Vec::new();
    let mut payload = Vec::new();
    let mut out = FloatData::scratch();
    for entry in registry.iter() {
        let codec = entry.codec();
        let mut c_rates = Vec::new();
        let mut d_rates = Vec::new();
        for data in &corpus {
            // Warm-up also sizes the reused buffers and skips "-" cells.
            let Ok(n) = codec.compress_into(data, &mut payload) else {
                continue;
            };
            let raw = data.bytes().len();
            c_rates.push(rate_mb_s(raw, reps, || {
                std::hint::black_box(codec.compress_into(data, &mut payload).expect("compress"));
            }));
            codec
                .decompress_into(&payload[..n], data.desc(), &mut out)
                .expect("decompress");
            d_rates.push(rate_mb_s(raw, reps, || {
                codec
                    .decompress_into(&payload[..n], data.desc(), &mut out)
                    .expect("decompress");
            }));
        }
        if c_rates.is_empty() {
            continue;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        rows.push(CodecRates {
            name: entry.name(),
            compress_mb_s: mean(&c_rates),
            decompress_mb_s: mean(&d_rates),
        });
    }
    rows
}

/// Codecs measured through the FCDB2 container path: the database-side
/// rows of the snapshot (a fast XOR codec, the recommended CPU stack, and
/// the hash-predictor baseline from the predictor family).
pub const CONTAINER_CODECS: [&str; 3] = ["gorilla", "bitshuffle-zstd", "dfcm"];

/// Container page size used for the snapshot, in elements.
pub const CONTAINER_CHUNK_ELEMS: usize = 4096;

struct ContainerRates {
    name: &'static str,
    write_mb_s: f64,
    read_mb_s: f64,
}

/// End-to-end FCDB2 throughput: streaming pooled container writes to a
/// temp file, and read + pooled decode back — the three-primitive I/O
/// path Table 11 times, as MB/s of raw column bytes.
fn measure_container(elems: usize, reps: usize) -> Vec<ContainerRates> {
    use fcbench_dbsim::{read_container, write_container_pooled, ColumnData};
    let registry = full_registry();
    let pool = WorkerPool::new(PoolConfig::for_host());
    let data = generate(&find("tpcDS-store").expect("catalog dataset"), elems);
    let columns = vec![match data.desc().precision {
        fcbench_core::Precision::Double => {
            ColumnData::from_f64("c0", &data.to_f64_vec().expect("precision checked"))
        }
        fcbench_core::Precision::Single => {
            ColumnData::from_f32("c0", &data.to_f32_vec().expect("precision checked"))
        }
    }];
    let raw = columns[0].bytes.len();

    let mut rows = Vec::new();
    for name in CONTAINER_CODECS {
        let codec = registry.get(name).expect("registered codec");
        let path =
            std::env::temp_dir().join(format!("fcbench-perfjson-{}-{name}", std::process::id()));
        let write_mb_s = rate_mb_s(raw, reps, || {
            write_container_pooled(&path, &pool, &codec, &columns, CONTAINER_CHUNK_ELEMS)
                .expect("container write");
        });
        let read_mb_s = rate_mb_s(raw, reps, || {
            let read = read_container(&path).expect("container read");
            for col in &read.table.columns {
                std::hint::black_box(col.decode_pooled(&pool, &codec).expect("decode"));
            }
        });
        std::fs::remove_file(&path).ok();
        rows.push(ContainerRates {
            name,
            write_mb_s,
            read_mb_s,
        });
    }
    rows
}

/// Connection counts for the serve-path rows: the scaling sweep the
/// serving layer is judged on.
pub const SERVE_CONNECTIONS: [usize; 4] = [1, 8, 64, 256];

/// Codec driven through the loopback server (thread-scalable, accepts
/// every corpus shape, fast enough that the measurement is the serving
/// path rather than the kernel).
pub const SERVE_CODEC: &str = "gorilla";

/// Block size for serve-path COMPRESS requests, in elements.
pub const SERVE_BLOCK_ELEMS: usize = 1024;

struct ServeRates {
    connections: usize,
    /// Total COMPRESS requests attempted across all connections.
    requests: usize,
    /// Attempted requests that returned an error, by [`fail_kind`].
    failed: BTreeMap<&'static str, usize>,
    /// Server-side request latency quantiles (`serve.request.compress`),
    /// read back over the wire via `STATS_V2`.
    p50_us: f64,
    p99_us: f64,
    /// Successful requests per second over the measurement wall time.
    rps: f64,
}

impl ServeRates {
    fn failed_total(&self) -> usize {
        self.failed.values().sum()
    }
}

/// The kind a failed serve request is counted under. A socket deadline
/// reaches the client as an `Io` error naming the OS condition, so
/// timeouts are told apart by that message.
fn fail_kind(err: &Error) -> &'static str {
    match err {
        Error::Busy { .. } => "busy",
        Error::Io(msg) => {
            let msg = msg.to_ascii_lowercase();
            if ["timed out", "temporarily unavailable", "would block"]
                .iter()
                .any(|m| msg.contains(m))
            {
                "timeout"
            } else {
                "io"
            }
        }
        _ => "refused",
    }
}

/// Drive a loopback `FCS1` server at each connection count and read the
/// serve-path latency distribution back out of the server's own telemetry
/// (`STATS_V2`), so the p50/p99 rows are what the *server* measured —
/// queue effects included — not a client-side stopwatch. Each round gets
/// a fresh server and pool so its histograms cover exactly that round.
fn measure_serve(elems: usize, reps: usize) -> Vec<ServeRates> {
    let data = generate(&find("citytemp").expect("catalog dataset"), elems);
    let per_client = reps.clamp(1, 8);
    SERVE_CONNECTIONS
        .iter()
        .map(|&conns| serve_round(conns, &data, per_client, ServeConfig::default()))
        .collect()
}

/// One serve-bench round: fresh server and pool, `conns` concurrent
/// clients issuing `per_client` COMPRESS requests each, quantiles from
/// the server's own histograms. A request that fails (a client timeout,
/// a shed or refused request, a connection that could not open) is
/// counted in the row by kind rather than aborting the snapshot.
fn serve_round(
    conns: usize,
    data: &FloatData,
    per_client: usize,
    config: ServeConfig,
) -> ServeRates {
    use fcbench_serve::{Client, Server};
    use std::sync::Arc;

    let registry = Arc::new(full_registry());
    let pool = Arc::new(WorkerPool::new(PoolConfig::for_host()));
    let server = Server::bind("127.0.0.1:0", registry, pool, config).expect("bind loopback");
    let addr = server.local_addr();
    let running = server.spawn();

    let t = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|_| {
            let data = data.clone();
            std::thread::spawn(move || {
                let mut failed = BTreeMap::new();
                match Client::connect(addr) {
                    Ok(mut client) => {
                        for _ in 0..per_client {
                            match client.compress(SERVE_CODEC, &data, SERVE_BLOCK_ELEMS) {
                                Ok(stream) => {
                                    std::hint::black_box(stream);
                                }
                                Err(e) => *failed.entry(fail_kind(&e)).or_insert(0) += 1,
                            }
                        }
                    }
                    Err(e) => *failed.entry(fail_kind(&e)).or_insert(0) += per_client,
                }
                failed
            })
        })
        .collect();
    let mut failed = BTreeMap::new();
    for w in workers {
        for (kind, n) in w.join().expect("serve client thread") {
            *failed.entry(kind).or_insert(0) += n;
        }
    }
    let wall = t.elapsed().as_secs_f64();

    let mut admin = Client::connect(addr).expect("connect admin");
    let v2 = admin.stats_v2().expect("stats_v2");
    let hist = v2
        .histogram("serve.request.compress")
        .expect("compress latency histogram");
    let requests = conns * per_client;
    let ok = requests - failed.values().sum::<usize>();
    if ok == requests {
        assert_eq!(hist.count() as usize, requests, "every request was timed");
    }
    let row = ServeRates {
        connections: conns,
        requests,
        failed,
        p50_us: hist.p50() as f64 / 1e3,
        p99_us: hist.p99() as f64 / 1e3,
        rps: ok as f64 / wall.max(f64::EPSILON),
    };
    drop(admin);
    running.shutdown().expect("serve shutdown");
    row
}

/// Render the snapshot as pretty-printed JSON.
fn render(
    pr: u32,
    elems: usize,
    reps: usize,
    rows: &[CodecRates],
    container: &[ContainerRates],
    serve: &[ServeRates],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"pr\": {pr},\n"));
    s.push_str(&format!("  \"elems\": {elems},\n"));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    // Environment block (v3): what the numbers were taken on, so a
    // trajectory diff can tell a real regression from a host change.
    let host = PoolConfig::for_host();
    s.push_str("  \"env\": {\n");
    s.push_str(&format!("    \"threads\": {},\n", host.threads));
    s.push_str(&format!("    \"queue_depth\": {},\n", host.queue_depth));
    s.push_str(&format!("    \"block_elems\": {},\n", host.block_elems));
    s.push_str(&format!("    \"os\": \"{}\",\n", std::env::consts::OS));
    s.push_str(&format!("    \"arch\": \"{}\"\n", std::env::consts::ARCH));
    s.push_str("  },\n");
    let corpus = CORPUS
        .iter()
        .map(|d| format!("\"{d}\""))
        .collect::<Vec<_>>()
        .join(", ");
    s.push_str(&format!("  \"corpus\": [{corpus}],\n"));
    s.push_str("  \"codecs\": {\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        s.push_str(&format!(
            "    \"{}\": {{\"compress_mb_s\": {:.2}, \"decompress_mb_s\": {:.2}}}{comma}\n",
            r.name, r.compress_mb_s, r.decompress_mb_s
        ));
    }
    s.push_str("  },\n");
    s.push_str(&format!(
        "  \"container\": {{\n    \"chunk_elems\": {CONTAINER_CHUNK_ELEMS},\n"
    ));
    for (i, r) in container.iter().enumerate() {
        let comma = if i + 1 == container.len() { "" } else { "," };
        s.push_str(&format!(
            "    \"{}\": {{\"container_write_mb_s\": {:.2}, \"container_read_mb_s\": {:.2}}}{comma}\n",
            r.name, r.write_mb_s, r.read_mb_s
        ));
    }
    s.push_str("  },\n");
    // Serve section (v3): server-measured request latency over loopback,
    // one row per connection count.
    s.push_str(&format!(
        "  \"serve\": {{\n    \"codec\": \"{SERVE_CODEC}\",\n    \"block_elems\": {SERVE_BLOCK_ELEMS},\n    \"rows\": [\n"
    ));
    for (i, r) in serve.iter().enumerate() {
        let comma = if i + 1 == serve.len() { "" } else { "," };
        let by_kind = r
            .failed
            .iter()
            .map(|(kind, n)| format!("\"{kind}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "      {{\"connections\": {}, \"requests\": {}, \"failed\": {}, \"failed_by_kind\": {{{by_kind}}}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"rps\": {:.0}}}{comma}\n",
            r.connections, r.requests, r.failed_total(), r.p50_us, r.p99_us, r.rps
        ));
    }
    s.push_str("    ]\n  }\n}\n");
    s
}

/// Run the measurement and write `path`. Returns the rendered JSON (also
/// echoed by the caller for CI logs).
pub fn write_snapshot(path: &str, pr: u32, elems: usize, reps: usize) -> std::io::Result<String> {
    let rows = measure(elems, reps);
    let container = measure_container(elems, reps);
    let serve = measure_serve(elems, reps);
    let json = render(pr, elems, reps, &rows, &container, &serve);
    std::fs::write(path, &json)?;
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_has_all_hot_codecs_and_valid_shape() {
        let rows = measure(512, 1);
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        for hot in [
            "gorilla",
            "chimp128",
            "fpzip",
            "pfpc",
            "buff",
            "last-value",
            "last-stride",
            "dfcm",
        ] {
            assert!(names.contains(&hot), "{hot} missing from snapshot");
        }
        let container = measure_container(512, 1);
        // One tiny serve row is enough for shape checks: the full
        // connection sweep runs in `bench-json` proper, not unit tests.
        let serve = vec![ServeRates {
            connections: 1,
            requests: 2,
            failed: BTreeMap::from([("timeout", 1)]),
            p50_us: 120.0,
            p99_us: 450.0,
            rps: 1000.0,
        }];
        let json = render(8, 512, 1, &rows, &container, &serve);
        // Minimal structural checks without a JSON parser: balanced
        // braces, schema line, one entry per codec.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert!(json.contains("\"schema\": \"fcbench-perf-v4\""));
        assert!(json.contains("\"env\""));
        assert!(json.contains("\"threads\""));
        assert!(json.contains("\"serve\""));
        assert!(json.contains("\"p99_us\": 450.0"));
        assert!(json.contains("\"failed\": 1, \"failed_by_kind\": {\"timeout\": 1}"));
        for r in &rows {
            assert!(json.contains(&format!("\"{}\"", r.name)));
            assert!(r.compress_mb_s.is_finite() && r.compress_mb_s > 0.0);
            assert!(r.decompress_mb_s.is_finite() && r.decompress_mb_s > 0.0);
        }
        assert_eq!(container.len(), CONTAINER_CODECS.len());
        for r in &container {
            assert!(json.contains("container_write_mb_s"));
            assert!(r.write_mb_s.is_finite() && r.write_mb_s > 0.0);
            assert!(r.read_mb_s.is_finite() && r.read_mb_s > 0.0);
        }
    }

    #[test]
    fn serve_round_quantiles_come_from_the_server_histogram() {
        let data = generate(&find("citytemp").expect("catalog dataset"), 256);
        let row = serve_round(2, &data, 2, ServeConfig::default());
        assert_eq!(row.connections, 2);
        assert_eq!(row.requests, 4);
        assert_eq!(row.failed_total(), 0);
        assert!(row.p50_us > 0.0, "server timed the requests");
        assert!(row.p99_us >= row.p50_us);
        assert!(row.rps.is_finite() && row.rps > 0.0);
    }

    #[test]
    fn serve_round_counts_refused_requests_instead_of_panicking() {
        let data = generate(&find("citytemp").expect("catalog dataset"), 256);
        // Every request is larger than the server accepts.
        let config = ServeConfig {
            max_request_bytes: data.bytes().len() - 1,
            ..ServeConfig::default()
        };
        let row = serve_round(2, &data, 3, config);
        assert_eq!(row.requests, 6);
        assert_eq!(row.failed_total(), 6);
        assert_eq!(row.failed.get("refused"), Some(&6));
        assert_eq!(row.rps, 0.0, "rps counts successful requests only");
        let json = render(8, 256, 1, &[], &[], &[row]);
        assert!(json.contains("\"failed\": 6, \"failed_by_kind\": {\"refused\": 6}"));
    }
}
