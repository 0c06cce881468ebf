//! `column-store`: the paper's database scenario (§5.1.2, Tables 10–11). A
//! four-column table is written to an FCDB2 file through `ContainerWriter`
//! on the shared pool, with 8192-element pages and a commit per column,
//! then reopened with `read_container`, decoded with pooled
//! `ColumnCursor`s and scanned with `DataFrame`. Small pages make the
//! per-record cost, CRC, pool jobs and file I/O a large share of the time.

use crate::host::CpuTicks;
use crate::inputs::{fingerprint, source, window_flat, Rng};
use crate::report::{FailKind, Metrics, Tally};
use crate::trace::{in_span, Tracer};
use crate::{maybe_traced, pool_metrics, stats, Phase, Scale};
use fcbench_core::{
    Compressor, DataDesc, Domain, Error, FloatData, PoolConfig, Result, WorkerPool,
};
use fcbench_dbsim::{
    read_container, ChunkExec, ColumnData, ContainerWriter, DataFrame, RecoveryOutcome,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const DATASETS: [&str; 4] = ["tpcDS-store", "tpcH-lineitem", "tpcxBB-store", "citytemp"];
pub const CODECS: [&str; 3] = ["gorilla", "dfcm", "bitshuffle-zstd"];
/// Page size in elements: 32 KiB single, 64 KiB double.
pub const PAGE_ELEMS: usize = 8192;
/// Latency limit of one page read, for `goodput_ops_s`.
const LIMIT_MS: f64 = 50.0;
/// Histogram bins of the scan query (the paper's 10-bin scan).
const SCAN_BINS: usize = 10;

pub struct Inputs {
    /// Columns in seed order.
    columns: Vec<ColumnData>,
    /// Scan checksum of the same table built in memory.
    expected: u64,
    codecs: Vec<Arc<dyn Compressor>>,
    sample: FloatData,
}

fn copy(c: &ColumnData) -> ColumnData {
    ColumnData {
        name: c.name.clone(),
        precision: c.precision,
        bytes: c.bytes.clone(),
    }
}

/// Rows matched by a `col <= edge` scan at each histogram edge of every
/// column.
fn scan_checksum(df: &DataFrame) -> u64 {
    df.column_names()
        .iter()
        .filter_map(|name| df.column(name))
        .map(|col| {
            df.histogram_edges(col, SCAN_BINS)
                .iter()
                .map(|&v| df.scan_le(col, v) as u64)
                .sum::<u64>()
        })
        .sum()
}

impl Inputs {
    pub fn new(seed: u64, scale: &Scale) -> Inputs {
        let rows = scale.column_rows;
        let mut rng = Rng::new(seed, 1);
        let mut columns: Vec<ColumnData> = DATASETS
            .iter()
            .map(|name| {
                let src = source(name, rows);
                ColumnData {
                    name: name.to_string(),
                    precision: src.desc().precision,
                    bytes: window_flat(&src, rows, &mut rng),
                }
            })
            .collect();
        let first = &columns[0];
        let sample_elems = (64 << 10).min(rows);
        let desc = DataDesc::new(first.precision, vec![sample_elems], Domain::Database)
            .expect("a 1-D shape is valid");
        let sample = FloatData::from_bytes(
            desc,
            first.bytes[..sample_elems * first.precision.bytes()].to_vec(),
        )
        .expect("sample length matches its shape");
        rng.shuffle(&mut columns);
        let df = DataFrame::from_columns(columns.iter().map(copy).collect())
            .expect("generated columns have equal lengths");
        let registry = fcbench_bench::codecs::full_registry();
        Inputs {
            expected: scan_checksum(&df),
            codecs: CODECS
                .iter()
                .map(|n| registry.get(n).expect("registered codec"))
                .collect(),
            columns,
            sample,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        fingerprint(
            self.columns
                .iter()
                .flat_map(|c| [c.name.as_bytes(), &c.bytes[..]]),
        )
    }

    /// The block the per-codec kernel timings use: the first 64K elements
    /// of the tpcDS-store column.
    pub fn sample_block(&self) -> &FloatData {
        &self.sample
    }

    fn raw_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.bytes.len()).sum()
    }
}

/// Write the table, one commit per column, and return the file's size.
fn write_table(
    path: &Path,
    pool: &WorkerPool,
    codec: &Arc<dyn Compressor>,
    columns: &[ColumnData],
    tracer: Option<&Tracer>,
    req: u64,
) -> Result<u64> {
    let ambient = |id| {
        if let Some(t) = tracer {
            t.set_ambient(id, req);
        }
    };
    let file = std::fs::File::create(path)?;
    let mut w = ContainerWriter::new(
        std::io::BufWriter::new(file),
        ChunkExec::Pooled(pool, codec),
    )?;
    for col in columns {
        in_span(tracer, "container.write", 0, req, |id| {
            ambient(id);
            w.begin_column(col.name.clone(), col.precision, PAGE_ELEMS)?;
            w.write(&col.bytes)
        })?;
        in_span(tracer, "container.commit", 0, req, |id| {
            ambient(id);
            w.commit()
        })?;
    }
    in_span(tracer, "container.finish_sync", 0, req, |id| {
        ambient(id);
        let file = w
            .finish()?
            .into_inner()
            .map_err(|e| Error::Io(e.to_string()))?;
        file.sync_all()?;
        Ok(file.metadata()?.len())
    })
}

/// Read the table back and decode every column through pooled cursors,
/// timing each page as the reader waits for it.
fn read_table(
    path: &Path,
    pool: &WorkerPool,
    codec: &Arc<dyn Compressor>,
    tracer: Option<&Tracer>,
    req: u64,
    page_ms: &mut Vec<f64>,
) -> Result<(Vec<ColumnData>, RecoveryOutcome)> {
    let read = in_span(tracer, "container.open", 0, req, |_| read_container(path))?;
    let mut columns = Vec::with_capacity(read.table.columns.len());
    for col in &read.table.columns {
        let bytes = in_span(tracer, "container.decode", 0, req, |id| {
            if let Some(t) = tracer {
                t.set_ambient(id, req);
            }
            let mut cursor = col.cursor(pool, codec)?;
            let mut bytes = Vec::with_capacity(col.rows * col.precision.bytes());
            loop {
                let t = Instant::now();
                let Some(page) = cursor.next_chunk()? else {
                    break;
                };
                bytes.extend_from_slice(page);
                page_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Ok::<_, Error>(bytes)
        })?;
        columns.push(ColumnData {
            name: col.name.clone(),
            precision: col.precision,
            bytes,
        });
    }
    Ok((columns, read.outcome))
}

fn counter(name: &str) -> u64 {
    fcbench_dbsim::metrics::registry()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

/// Whole passes (every codec: write, read, scan) until another pass would
/// overrun `seconds` (at least one).
pub fn run(inputs: &Inputs, seconds: f64, tracer: Option<&Arc<Tracer>>, dir: &Path) -> Phase {
    let pool = WorkerPool::new(PoolConfig::for_host());
    let codecs: Vec<_> = inputs
        .codecs
        .iter()
        .map(|c| maybe_traced(c, tracer))
        .collect();
    let t_ref = tracer.map(|t| &**t);
    let raw = inputs.raw_bytes();
    let records0 = counter("dbsim.container.records.committed");
    let stalls0 = counter("dbsim.cursor.read_ahead.stalls");
    let mut tally = Tally::default();
    let (mut raw_total, mut file_total, mut write_s, mut read_s) = (0usize, 0u64, 0.0, 0.0);
    let (mut not_clean, mut rows_matched) = (0u64, 0u64);
    let mut page_ms = Vec::new();
    // Per pass: write MB/s, read MB/s and pages within the limit per read
    // second, and the pass's page latencies.
    let mut per_pass: Vec<([f64; 3], Vec<f64>)> = Vec::new();
    let mut passes = 0;
    let mut req = 0;
    let t0 = Instant::now();
    loop {
        let t_pass = Instant::now();
        let ticks = CpuTicks::now();
        let (raw0, write0, read0, pages0) = (raw_total, write_s, read_s, page_ms.len());
        for (i, codec) in codecs.iter().enumerate() {
            req += 1;
            let path = dir.join(format!("column-store-{i}.fcdb"));
            let t = Instant::now();
            let written = write_table(&path, &pool, codec, &inputs.columns, t_ref, req);
            let w_s = t.elapsed().as_secs_f64();
            if !tally.check(&written) {
                continue;
            }
            let t = Instant::now();
            let read = read_table(&path, &pool, codec, t_ref, req, &mut page_ms);
            let r_s = t.elapsed().as_secs_f64();
            if !tally.check(&read) {
                continue;
            }
            let (Ok(file_bytes), Ok((decoded, outcome))) = (written, read) else {
                continue;
            };
            let same = decoded.len() == inputs.columns.len()
                && decoded
                    .iter()
                    .zip(&inputs.columns)
                    .all(|(d, c)| d.name == c.name && d.bytes == c.bytes);
            if outcome != RecoveryOutcome::Clean || !same {
                not_clean += u64::from(outcome != RecoveryOutcome::Clean);
                tally.fail(FailKind::Mismatch);
                continue;
            }
            let scan = in_span(t_ref, "dataframe.scan", 0, req, |_| {
                DataFrame::from_columns(decoded).map(|df| scan_checksum(&df))
            });
            if !tally.check(&scan) {
                continue;
            }
            rows_matched = scan.unwrap_or(0);
            if rows_matched != inputs.expected {
                tally.fail(FailKind::Mismatch);
                continue;
            }
            raw_total += raw;
            file_total += file_bytes;
            write_s += w_s;
            read_s += r_s;
        }
        // Times scaled by the share of CPU time the host let the VM run.
        let avail = 1.0 - CpuTicks::now().steal_since(&ticks);
        let pass_raw = (raw_total - raw0) as f64 / 1e6;
        let pages: Vec<f64> = page_ms[pages0..].iter().map(|ms| ms * avail).collect();
        let good = pages.iter().filter(|&&l| l <= LIMIT_MS).count();
        let pass_read_s = (read_s - read0) * avail;
        let figures = [
            pass_raw / ((write_s - write0) * avail),
            pass_raw / pass_read_s,
            good as f64 / pass_read_s,
        ];
        per_pass.push((figures, pages));
        passes += 1;
        if t0.elapsed().as_secs_f64() + t_pass.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    for i in 0..codecs.len() {
        std::fs::remove_file(dir.join(format!("column-store-{i}.fcdb"))).ok();
    }

    // Medians over passes, so a host stall moves one pass, not the run.
    let median_of = |i: usize| stats::median(&per_pass.iter().map(|p| p.0[i]).collect::<Vec<_>>());
    let pages: Vec<f64> = per_pass.iter().flat_map(|p| p.1.iter().copied()).collect();
    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();
    e2e.set("compress_mb_s", median_of(0), "MB/s");
    e2e.set("decompress_mb_s", median_of(1), "MB/s");
    e2e.set(
        "compression_ratio",
        raw_total as f64 / file_total as f64,
        "x",
    );
    layers.set("p50_ms", stats::quantile(&pages, 0.5), "ms");
    layers.set("p99_ms", stats::quantile(&pages, 0.99), "ms");
    layers.set("goodput_ops_s", median_of(2), "1/s");

    let per_pass = |n: u64| (n / passes as u64) as f64;
    layers.set("run.passes", passes as f64, "count");
    layers.set("run.samples", page_ms.len() as f64, "count");
    pool_metrics(&pool, wall, passes, &mut layers);
    layers.set(
        "container.records",
        per_pass(counter("dbsim.container.records.committed") - records0),
        "count",
    );
    layers.set(
        "container.read_ahead_stalls",
        per_pass(counter("dbsim.cursor.read_ahead.stalls") - stalls0),
        "count",
    );
    layers.set("container.not_clean", not_clean as f64, "count");
    layers.set("dataframe.rows_matched", rows_matched as f64, "count");
    Phase {
        e2e,
        layers,
        tally,
        cost_s: (write_s + read_s) / passes as f64,
    }
}
