//! The pooled block protocol (`BlockLane`) as seen through its six callers:
//! `Pipeline` compress/decompress, `FrameWriter`/`FrameReader`, and the
//! dbsim `ContainerWriter`/`ColumnCursor`.
//!
//! - A pooled reader yields exactly what the inline reader yields before
//!   an error: the same Ok-prefix, then the same error kind.
//! - Every caller turns a codec failure on its 3rd block into a typed
//!   error and leaks no pool slot.

use fcbench::core::codec::{CodecClass, CodecInfo, Community, Platform, PrecisionSupport};
use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::stream::{FrameReader, FrameWriter};
use fcbench::core::{Compressor, DataDesc, Domain, Error, FloatData, Pipeline, Precision, Result};
use fcbench::dbsim::{ChunkExec, CompressedColumn, ContainerWriter};
use std::sync::Arc;

const BLOCK: usize = 64;
const BLOCKS: usize = 8;

/// Identity codec named "flaky". With `fail` set, it refuses (in both
/// directions) the block whose elements all equal 2.0 — the 3rd block of
/// [`blocks`] — however the pool schedules the jobs.
struct Flaky {
    fail: bool,
}

impl Flaky {
    fn check(&self, block: &[u8]) -> Result<()> {
        if self.fail && block.get(..8) == Some(&2.0f64.to_le_bytes()[..]) {
            return Err(Error::Corrupt("injected failure on block 2".into()));
        }
        Ok(())
    }
}

impl Compressor for Flaky {
    fn info(&self) -> CodecInfo {
        CodecInfo {
            name: "flaky",
            year: 2024,
            community: Community::General,
            class: CodecClass::Delta,
            platform: Platform::Cpu,
            parallel: false,
            precisions: PrecisionSupport::Both,
        }
    }
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        self.check(data.bytes())?;
        out.clear();
        out.extend_from_slice(data.bytes());
        Ok(out.len())
    }
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        self.check(payload)?;
        out.refill_from_slice(desc, payload)
    }
}

fn good() -> Arc<dyn Compressor> {
    Arc::new(Flaky { fail: false })
}

fn flaky() -> Arc<dyn Compressor> {
    Arc::new(Flaky { fail: true })
}

/// `BLOCKS` blocks of `BLOCK` doubles; every element of block `b` is `b`.
fn blocks() -> FloatData {
    let vals: Vec<f64> = (0..BLOCK * BLOCKS).map(|i| (i / BLOCK) as f64).collect();
    FloatData::from_f64(&vals, vec![vals.len()], Domain::Hpc).unwrap()
}

fn encode_stream(data: &FloatData) -> Vec<u8> {
    let mut w = FrameWriter::new(Vec::new(), good(), data.desc().clone(), BLOCK, None).unwrap();
    w.write(data.bytes()).unwrap();
    w.finish().unwrap()
}

/// Drain a reader: the blocks it yielded, then how it ended.
fn drain<R: std::io::Read>(mut r: FrameReader<R>) -> (Vec<Vec<u8>>, Result<()>) {
    let mut got = Vec::new();
    loop {
        match r.next_block() {
            Ok(Some(block)) => got.push(block.to_vec()),
            Ok(None) => return (got, Ok(())),
            Err(e) => return (got, Err(e)),
        }
    }
}

fn kind(r: &Result<()>) -> std::mem::Discriminant<Error> {
    std::mem::discriminant(r.as_ref().expect_err("the run must fail"))
}

fn pool() -> Arc<WorkerPool> {
    Arc::new(WorkerPool::new(PoolConfig::with_threads(2).queue_depth(8)))
}

#[test]
fn pooled_reader_yields_the_inline_prefix_before_a_truncation_error() {
    let data = blocks();
    let stream = encode_stream(&data);
    for cut in [3usize, BLOCK * 8 + 3, 2 * (BLOCK * 8 + 8) + 5] {
        let torn = &stream[..stream.len() - cut];
        let (inline, inline_end) = drain(FrameReader::new(torn, good(), None).unwrap());
        let (pooled, pooled_end) = drain(FrameReader::new(torn, good(), Some(pool())).unwrap());
        assert!(
            !inline.is_empty(),
            "cut {cut}: the intact blocks come first"
        );
        assert_eq!(pooled.len(), inline.len(), "cut {cut}: same Ok-prefix");
        assert!(pooled == inline, "cut {cut}: same block bytes");
        assert_eq!(kind(&pooled_end), kind(&inline_end), "cut {cut}");
    }
}

#[test]
fn pooled_cursor_yields_every_page_before_the_row_coverage_error() {
    let data = blocks();
    let col = CompressedColumn {
        name: "c".into(),
        precision: Precision::Double,
        rows: BLOCK * BLOCKS + 1,
        chunk_elems: BLOCK,
        chunks: data.bytes().chunks(BLOCK * 8).map(<[u8]>::to_vec).collect(),
    };
    // The inline decode sees every chunk before it finds the missing row.
    let inline_end = col.decode(&*good()).map(|_| ());
    let pool = pool();
    let codec = good();
    let mut cursor = col.cursor(&pool, &codec).unwrap();
    let mut pages = Vec::new();
    let pooled_end = loop {
        match cursor.next_chunk() {
            Ok(Some(page)) => pages.push(page.to_vec()),
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    assert_eq!(pages.len(), col.chunks.len(), "every intact page");
    assert!(pages == col.chunks, "pages in column order");
    assert_eq!(kind(&pooled_end), kind(&inline_end));
}

/// One caller of the lane, run on `pool` with a codec that fails on the
/// 3rd block.
type Caller = fn(&Arc<WorkerPool>, &FloatData) -> Result<()>;

fn pipeline_compress(pool: &Arc<WorkerPool>, data: &FloatData) -> Result<()> {
    let p = Pipeline::with_pool(flaky(), Arc::clone(pool)).block_elems(BLOCK);
    p.compress(data).map(|_| ())
}

fn pipeline_decompress(pool: &Arc<WorkerPool>, data: &FloatData) -> Result<()> {
    let frame = Pipeline::with_codec(good())
        .block_elems(BLOCK)
        .compress(data)?;
    let p = Pipeline::with_pool(flaky(), Arc::clone(pool)).block_elems(BLOCK);
    p.decompress(&frame).map(|_| ())
}

fn frame_writer(pool: &Arc<WorkerPool>, data: &FloatData) -> Result<()> {
    let mut w = FrameWriter::new(
        Vec::new(),
        flaky(),
        data.desc().clone(),
        BLOCK,
        Some(Arc::clone(pool)),
    )?;
    w.write(data.bytes())?;
    w.finish().map(|_| ())
}

fn frame_reader(pool: &Arc<WorkerPool>, data: &FloatData) -> Result<()> {
    let stream = encode_stream(data);
    let r = FrameReader::new(&stream[..], flaky(), Some(Arc::clone(pool)))?;
    drain(r).1
}

fn container_writer(pool: &Arc<WorkerPool>, data: &FloatData) -> Result<()> {
    let codec = flaky();
    let mut w = ContainerWriter::new(Vec::new(), ChunkExec::Pooled(pool, &codec))?;
    w.begin_column("c", Precision::Double, BLOCK)?;
    w.write(data.bytes())?;
    w.finish().map(|_| ())
}

fn column_cursor(pool: &Arc<WorkerPool>, data: &FloatData) -> Result<()> {
    let col = CompressedColumn {
        name: "c".into(),
        precision: Precision::Double,
        rows: data.elements(),
        chunk_elems: BLOCK,
        chunks: data.bytes().chunks(BLOCK * 8).map(<[u8]>::to_vec).collect(),
    };
    let codec = flaky();
    let mut cursor = col.cursor(pool, &codec)?;
    while cursor.next_chunk()?.is_some() {}
    Ok(())
}

#[test]
fn every_lane_caller_fails_typed_and_leaks_no_slot() {
    let cases: [(&str, Caller); 6] = [
        ("Pipeline::compress_into", pipeline_compress),
        ("Pipeline::decompress_into", pipeline_decompress),
        ("FrameWriter::write", frame_writer),
        ("FrameReader::next_block", frame_reader),
        ("ContainerWriter::write", container_writer),
        ("ColumnCursor::next_chunk", column_cursor),
    ];
    let data = blocks();
    for (name, run) in cases {
        let pool = pool();
        let r = run(&pool, &data);
        assert!(
            matches!(r, Err(Error::Corrupt(ref m)) if m.contains("block 2")),
            "{name}: the codec failure surfaces typed, got {r:?}"
        );
        pool.drain();
        assert_eq!(
            pool.telemetry().snapshot().gauge("pool.slots.occupied"),
            Some(0),
            "{name}: every slot recycled"
        );
        let t = pool
            .submit_compress(&good(), data.desc(), data.bytes())
            .expect("the pool still takes jobs");
        assert_eq!(
            t.collect(|p| p.len()).unwrap(),
            data.bytes().len(),
            "{name}"
        );
    }
}
