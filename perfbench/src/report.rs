//! Metric collection, typed failure accounting and the JSON result line.

use fcbench_core::Error;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named metrics with their units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.0.get(name).map(|&(_, u)| u)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`. Non-finite values
    /// (which JSON cannot carry) are written as 0.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// Why an attempted operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// A deadline expired (socket read or write timeout).
    Timeout,
    /// The server shed the request (`Error::Busy`).
    Busy,
    /// Any other I/O error.
    Io,
    /// Corrupt data or a failed checksum.
    Corrupt,
    /// The operation returned, but its output differs from its input, or a
    /// container read was not `Clean`.
    Mismatch,
    /// Every other refusal (unsupported input, bad descriptor, ...).
    Other,
}

impl FailKind {
    pub const ALL: [FailKind; 6] = [
        FailKind::Timeout,
        FailKind::Busy,
        FailKind::Io,
        FailKind::Corrupt,
        FailKind::Mismatch,
        FailKind::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FailKind::Timeout => "timeout",
            FailKind::Busy => "busy",
            FailKind::Io => "io",
            FailKind::Corrupt => "corrupt",
            FailKind::Mismatch => "mismatch",
            FailKind::Other => "other",
        }
    }

    /// Classify an error a layer returned. A socket deadline surfaces as an
    /// `Io` error whose message names the OS condition, so timeouts are
    /// told apart by that message.
    pub fn of(err: &Error) -> FailKind {
        match err {
            Error::Busy { .. } => FailKind::Busy,
            Error::Io(msg) => {
                let msg = msg.to_ascii_lowercase();
                if ["timed out", "temporarily unavailable", "would block"]
                    .iter()
                    .any(|m| msg.contains(m))
                {
                    FailKind::Timeout
                } else {
                    FailKind::Io
                }
            }
            Error::Corrupt(_) | Error::ChecksumMismatch { .. } => FailKind::Corrupt,
            Error::LosslessViolation { .. } => FailKind::Mismatch,
            _ => FailKind::Other,
        }
    }
}

/// Attempts and failures by kind. Every layer call the benchmark makes is
/// counted here; nothing unwraps a layer's `Result`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    failed: [u64; 6],
}

impl Tally {
    /// Count one attempt and return whether it succeeded.
    pub fn check<T>(&mut self, result: &fcbench_core::Result<T>) -> bool {
        self.attempted += 1;
        match result {
            Ok(_) => true,
            Err(e) => {
                self.fail(FailKind::of(e));
                false
            }
        }
    }

    /// Count one attempt that failed with `kind`.
    pub fn attempt_failed(&mut self, kind: FailKind) {
        self.attempted += 1;
        self.fail(kind);
    }

    /// Reclassify an attempt already counted as a success as failed.
    pub fn fail(&mut self, kind: FailKind) {
        self.failed[kind as usize] += 1;
    }

    pub fn failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    pub fn count(&self, kind: FailKind) -> u64 {
        self.failed[kind as usize]
    }

    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (a, b) in self.failed.iter_mut().zip(other.failed) {
            *a += b;
        }
    }

    /// `error_rate` and `fail.<kind>` as per-layer metrics.
    pub fn metrics(&self, m: &mut Metrics) {
        m.set("error_rate", self.error_rate(), "frac");
        for kind in FailKind::ALL {
            m.set(
                format!("fail.{}", kind.name()),
                self.count(kind) as f64,
                "count",
            );
        }
    }
}

/// The contract's last stdout line.
pub fn result_line(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed(),
        metrics.to_json()
    )
}
