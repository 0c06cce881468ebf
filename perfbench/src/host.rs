//! Host calibration, taken in every run next to the results, so a later
//! comparison can tell host drift from a change to the program.

use crate::report::Metrics;
use crate::stats::median_secs;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

const MEMCPY_BYTES: usize = 64 << 20;
const CRC_BYTES: usize = 16 << 20;
const RTT_ROUNDS: usize = 400;

/// `host.memcpy_gb_s`, `stream.crc32_mb_s` (the program's own
/// `stream::crc32` over 16 MiB) and `host.loopback_rtt_us`.
pub fn calibrate() -> std::io::Result<Metrics> {
    let mut m = Metrics::default();
    let src: Vec<u8> = (0..MEMCPY_BYTES)
        .map(|i| (i * 31 + i / 4096) as u8)
        .collect();
    let mut dst = vec![0u8; MEMCPY_BYTES];
    let t = median_secs(7, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    m.set("host.memcpy_gb_s", MEMCPY_BYTES as f64 / t / 1e9, "GB/s");

    let crc_in = &src[..CRC_BYTES];
    let t = median_secs(5, || {
        black_box(fcbench_core::stream::crc32(black_box(crc_in)));
    });
    m.set("stream.crc32_mb_s", CRC_BYTES as f64 / t / 1e6, "MB/s");

    m.set("host.loopback_rtt_us", loopback_rtt_s()? * 1e6, "us");
    Ok(m)
}

/// Median of five batches of one-byte TCP ping-pongs over loopback.
fn loopback_rtt_s() -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            let mut b = [0u8; 1];
            while peer.read(&mut b)? == 1 {
                peer.write_all(&b)?;
            }
            Ok(())
        });
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let mut b = [7u8; 1];
        let mut batches = Vec::new();
        for _ in 0..5 {
            let t = std::time::Instant::now();
            for _ in 0..RTT_ROUNDS {
                conn.write_all(&b)?;
                conn.read_exact(&mut b)?;
            }
            batches.push(t.elapsed().as_secs_f64() / RTT_ROUNDS as f64);
        }
        drop(conn);
        echo.join().expect("echo thread panicked")?;
        Ok(crate::stats::median(&batches))
    })
}

/// The VM-wide CPU tick counters of `/proc/stat`: ticks stolen by the
/// hypervisor (the "steal" column) and all ticks. Zero where unavailable.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        CpuTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Share of CPU ticks stolen from this VM since `earlier`: time its CPUs
    /// were ready to run while the host ran another tenant.
    pub fn steal_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
