//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent span and request id. Spans stay in
//! memory and are written out as JSON lines when the run ends. Codec spans
//! come from [`TracedCodec`], a `Compressor` that wraps a registry codec and
//! times each call; it runs wherever the program runs the codec (inline or
//! on a pool worker), and takes as parent the span the calling thread
//! declared with [`Tracer::set_ambient`]. The program itself is not
//! instrumented.

use fcbench_core::codec::{AuxTime, CodecInfo, OpProfile};
use fcbench_core::{Compressor, DataDesc, FloatData, Result};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span, or when the cause is not known.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started and not yet ended.
#[must_use]
pub struct Open {
    pub id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// `(parent, request)` for spans opened by codec calls on any thread.
    ambient: Mutex<(u64, u64)>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            ambient: Mutex::new((0, 0)),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&self, name: &'static str, parent: u64, req: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Declare the parent and request of the codec spans that follow, until
    /// the next call. Only meaningful while one thread drives the layer.
    pub fn set_ambient(&self, parent: u64, req: u64) {
        *self.ambient.lock().expect("ambient poisoned") = (parent, req);
    }

    fn ambient(&self) -> (u64, u64) {
        *self.ambient.lock().expect("ambient poisoned")
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Run `f` inside a span when tracing, or plainly when not. `f` gets the
/// span id (0 when untraced).
pub fn in_span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    match tracer {
        None => f(0),
        Some(t) => {
            let open = t.open(name, parent, req);
            let r = f(open.id);
            t.close(open);
            r
        }
    }
}

/// A registry codec whose calls are recorded as `codec.compress` and
/// `codec.decompress` spans.
pub struct TracedCodec {
    inner: Arc<dyn Compressor>,
    tracer: Arc<Tracer>,
}

impl TracedCodec {
    pub fn wrap(inner: &Arc<dyn Compressor>, tracer: &Arc<Tracer>) -> Arc<dyn Compressor> {
        Arc::new(TracedCodec {
            inner: Arc::clone(inner),
            tracer: Arc::clone(tracer),
        })
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (parent, req) = self.tracer.ambient();
        in_span(Some(&self.tracer), name, parent, req, |_| f())
    }
}

impl Compressor for TracedCodec {
    fn info(&self) -> CodecInfo {
        self.inner.info()
    }
    fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
        self.span("codec.compress", || self.inner.compress_into(data, out))
    }
    fn decompress_into(&self, payload: &[u8], desc: &DataDesc, out: &mut FloatData) -> Result<()> {
        self.span("codec.decompress", || {
            self.inner.decompress_into(payload, desc, out)
        })
    }
    fn compress(&self, data: &FloatData) -> Result<Vec<u8>> {
        self.span("codec.compress", || self.inner.compress(data))
    }
    fn decompress(&self, payload: &[u8], desc: &DataDesc) -> Result<FloatData> {
        self.span("codec.decompress", || self.inner.decompress(payload, desc))
    }
    fn last_aux_time(&self) -> AuxTime {
        self.inner.last_aux_time()
    }
    fn op_profile(&self, desc: &DataDesc) -> Option<OpProfile> {
        self.inner.op_profile(desc)
    }
}

/// The union of `[start, end)` intervals, as sorted disjoint intervals.
fn merge(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of the union of `[start, end)` intervals.
fn union_len(iv: Vec<(u64, u64)>) -> u64 {
    merge(iv).iter().map(|(s, e)| e - s).sum()
}

/// Per span name: `(count, total ns, self ns)`, where a span's self time is
/// its duration minus the part of it its child spans cover. Children run on
/// other threads may overlap each other; the union is subtracted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |kids| {
            union_len(
                kids.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|&(a, b)| a < b)
                    .collect(),
            )
        });
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns() - covered.min(s.dur_ns());
    }
    out
}

/// Total time spans named `name` are not overlapped by any span named in
/// `by`, whatever their parents: self time where concurrent requests make
/// the parent of a codec call unknowable from outside the program.
pub fn uncovered_ns(spans: &[Span], name: &str, by: &[&str]) -> u64 {
    let cover = merge(
        spans
            .iter()
            .filter(|s| by.contains(&s.name))
            .map(|s| (s.start_ns, s.end_ns))
            .collect(),
    );
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let first = cover.partition_point(|&(_, e)| e <= s.start_ns);
            let covered: u64 = cover[first..]
                .iter()
                .take_while(|&&(a, _)| a < s.end_ns)
                .map(|&(a, b)| b.min(s.end_ns) - a.max(s.start_ns))
                .sum();
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .sum()
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "pipeline", 0, 100),
            span(2, 1, "codec", 10, 50),
            span(3, 1, "codec", 30, 70),
            span(4, 1, "codec", 90, 120),
        ];
        let t = self_times(&spans);
        // Children cover 10..70 and 90..100 of the parent: 70 ns.
        assert_eq!(t["pipeline"], (1, 100, 30));
        assert_eq!(t["codec"], (3, 40 + 40 + 30, 110));
        assert_eq!(uncovered_ns(&spans, "pipeline", &["codec"]), 30);
    }
}
