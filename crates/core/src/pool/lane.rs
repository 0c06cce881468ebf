//! [`BlockLane`]: the ordered, bounded window of pool jobs behind every
//! pipelined caller — `Pipeline`, the `FCB3` frame streams, and the dbsim
//! container writer and column cursor.

use super::{JobKind, Ticket, WorkerPool};
use crate::codec::Compressor;
use crate::data::DataDesc;
use crate::error::{Error, Result};
use fcbench_telemetry::{Counter, Gauge, InflightGauge};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;

/// One caller's window of in-flight jobs on a shared [`WorkerPool`],
/// collected strictly in submission (stream) order.
///
/// The lane holds four invariants, model-checked by
/// `fcbench-analyze check-pool`:
///
/// - **Bounded.** At most [`max_in_flight`](Self::max_in_flight) jobs are
///   in flight (by default the pool's slot count is the only bound).
/// - **Never blocks while holding tickets.** On a saturated pool a submit
///   collects this lane's own oldest job (counted in `pool.drain.stalls`)
///   and retries; read-ahead ([`next`](Self::next)) stops topping up
///   instead. Only an empty lane waits for a slot — the slots are then
///   pinned by other lanes, which release them without help from this one.
/// - **First error in stream order.** An error from a job, from the
///   caller's `emit`, or from producing the next job's input surfaces at
///   its own position: the jobs submitted ahead of it reach the caller
///   first.
/// - **Abandon on error or drop.** When an operation fails, or the lane is
///   dropped, every job still in flight is abandoned: its result is
///   discarded and its slot recycles as soon as the worker finishes.
///
/// Writers push blocks with [`submit_compress`](Self::submit_compress) or
/// [`submit_decompress`](Self::submit_decompress), receive every finished
/// job's output through an `emit` closure, and end with
/// [`finish`](Self::finish). Readers pull outputs with [`next`](Self::next).
/// `P` is how the lane holds its pool (`&WorkerPool` or `Arc<WorkerPool>`),
/// and `T` is a per-job tag handed back with the job's output.
pub struct BlockLane<P, T = ()> {
    pool: P,
    codec: Arc<dyn Compressor>,
    window: VecDeque<(Ticket, T)>,
    cap: usize,
    /// An error met while producing read-ahead input, delivered once every
    /// job ahead of it has been collected.
    parked: Option<Error>,
    inflight: InflightGauge,
    stalls: Option<Counter>,
}

impl<P: Deref<Target = WorkerPool>, T> BlockLane<P, T> {
    /// An empty lane running `codec` jobs on `pool`.
    pub fn new(pool: P, codec: Arc<dyn Compressor>) -> Self {
        BlockLane {
            pool,
            codec,
            window: VecDeque::new(),
            cap: usize::MAX,
            parked: None,
            inflight: InflightGauge::detached(),
            stalls: None,
        }
    }

    /// Cap the jobs this lane may have in flight (clamped to at least 1),
    /// so one stream cannot pin every slot of a shared pool.
    #[must_use]
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        self.cap = cap.max(1);
        self
    }

    /// Report this lane's in-flight count as its share of `gauge`.
    #[must_use]
    pub fn in_flight_gauge(mut self, gauge: Gauge) -> Self {
        self.inflight = InflightGauge::attached(gauge);
        self
    }

    /// Count every [`next`](Self::next) that waits on an unfinished job.
    #[must_use]
    pub fn stall_counter(mut self, stalls: Counter) -> Self {
        self.stalls = Some(stalls);
        self
    }

    /// Submit a compress job over the element bytes `bytes` shaped like
    /// `desc`. Collects (and emits) this lane's oldest jobs first while the
    /// lane is at its cap or the pool is saturated.
    pub fn submit_compress(
        &mut self,
        desc: &DataDesc,
        bytes: &[u8],
        tag: T,
        emit: impl FnMut(T, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let r = self.push(JobKind::Compress, desc, bytes, tag, emit);
        self.settle(r)
    }

    /// [`submit_compress`](Self::submit_compress) for a decompress job:
    /// `payload` decodes to data shaped like the untrusted `desc`.
    pub fn submit_decompress(
        &mut self,
        desc: &DataDesc,
        payload: &[u8],
        tag: T,
        emit: impl FnMut(T, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let r = self.push(JobKind::Decompress, desc, payload, tag, emit);
        self.settle(r)
    }

    /// Emit every job at the front of the window that has already finished,
    /// without waiting on unfinished ones. Returns how many were emitted.
    pub fn flush_ready(&mut self, mut emit: impl FnMut(T, &[u8]) -> Result<()>) -> Result<usize> {
        let mut flushed = 0;
        let r = loop {
            if !self.window.front().is_some_and(|(t, _)| t.is_finished()) {
                break Ok(flushed);
            }
            if let Err(e) = self.collect_front(&mut emit) {
                break Err(e);
            }
            flushed += 1;
        };
        self.settle(r)
    }

    /// Collect and emit every job still in flight, in order.
    pub fn finish(&mut self, mut emit: impl FnMut(T, &[u8]) -> Result<()>) -> Result<()> {
        let mut r = Ok(());
        while r.is_ok() && !self.window.is_empty() {
            r = self.collect_front(&mut emit);
        }
        self.settle(r)
    }

    /// Reader side: top the read-ahead window up by calling `fill` — which
    /// submits one job with [`offer_decompress`](Self::offer_decompress) and
    /// returns `Ok(true)`, or returns `Ok(false)` when it has no more input
    /// or the offer was refused — then hand the oldest job's output to
    /// `take`. An error from `fill` is parked behind the jobs already in
    /// flight and returned when the caller reaches it. `Ok(None)` means
    /// nothing was in flight and `fill` had nothing more.
    pub fn next<R>(
        &mut self,
        mut fill: impl FnMut(&mut Self) -> Result<bool>,
        take: impl FnOnce(T, &[u8]) -> R,
    ) -> Result<Option<R>> {
        let window = self.pool.queue_depth().min(self.cap);
        while self.parked.is_none() && self.window.len() < window {
            match fill(self) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => self.parked = Some(e),
            }
        }
        let Some((ticket, tag)) = self.window.pop_front() else {
            return self.parked.take().map_or(Ok(None), Err);
        };
        if !ticket.is_finished() {
            if let Some(stalls) = &self.stalls {
                stalls.inc();
            }
        }
        let r = ticket.collect(|out| take(tag, out)).map(Some);
        self.settle(r)
    }

    /// Submit a read-ahead decompress job from inside a [`next`](Self::next)
    /// `fill`. Returns `Ok(false)` without submitting when the pool is
    /// saturated and this lane already has jobs in flight; the caller keeps
    /// the input for the next call.
    pub fn offer_decompress(&mut self, desc: &DataDesc, payload: &[u8], tag: T) -> Result<bool> {
        WorkerPool::admit(JobKind::Decompress, desc, payload)?;
        let idx = match self.pool.try_acquire_slot()? {
            Some(idx) => idx,
            None if self.window.is_empty() => self.pool.acquire_slot()?,
            None => return Ok(false),
        };
        self.dispatch(idx, JobKind::Decompress, desc, payload, tag)?;
        Ok(true)
    }

    fn push(
        &mut self,
        kind: JobKind,
        desc: &DataDesc,
        input: &[u8],
        tag: T,
        mut emit: impl FnMut(T, &[u8]) -> Result<()>,
    ) -> Result<()> {
        while self.window.len() >= self.cap {
            self.collect_front(&mut emit)?;
        }
        WorkerPool::admit(kind, desc, input)?;
        let idx = loop {
            if let Some(idx) = self.pool.try_acquire_slot()? {
                break idx;
            }
            if self.window.is_empty() {
                break self.pool.acquire_slot()?;
            }
            self.collect_front(&mut emit)?;
            self.pool.shared.metrics.drain_stalls.inc();
        };
        self.dispatch(idx, kind, desc, input, tag)
    }

    fn dispatch(
        &mut self,
        idx: usize,
        kind: JobKind,
        desc: &DataDesc,
        input: &[u8],
        tag: T,
    ) -> Result<()> {
        let ticket = self.pool.dispatch(idx, kind, &self.codec, desc, input)?;
        self.window.push_back((ticket, tag));
        self.inflight.sync(self.window.len());
        Ok(())
    }

    /// Collect the oldest job into `emit` (a no-op on an empty window).
    fn collect_front(&mut self, emit: &mut impl FnMut(T, &[u8]) -> Result<()>) -> Result<()> {
        if let Some((ticket, tag)) = self.window.pop_front() {
            self.inflight.sync(self.window.len());
            ticket.collect(|out| emit(tag, out))??;
        }
        Ok(())
    }

    /// Abandon everything in flight if `r` failed, and settle the gauge.
    fn settle<R>(&mut self, r: Result<R>) -> Result<R> {
        if r.is_err() {
            self.window.clear();
            self.parked = None;
        }
        self.inflight.sync(self.window.len());
        r
    }
}
