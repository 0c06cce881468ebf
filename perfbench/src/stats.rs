//! Order statistics over raw samples.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Split timestamped samples `(t, value)` into consecutive windows of
/// `window` seconds, one per entry of `steal` (each window's steal share),
/// and return the median over windows of `per_window(values, available)`,
/// where `available` is the share of CPU time the host left the VM in
/// that window.
pub fn windowed<T: Copy>(
    samples: &[(f64, T)],
    window: f64,
    steal: &[f64],
    per_window: impl Fn(&[T], f64) -> f64,
) -> f64 {
    let mut buckets = vec![Vec::new(); steal.len().max(1)];
    for &(t, v) in samples {
        if let Some(b) = buckets.get_mut((t / window) as usize) {
            b.push(v);
        }
    }
    let figures: Vec<f64> = buckets
        .iter()
        .zip(steal.iter().chain(std::iter::repeat(&0.0)))
        .map(|(b, &s)| per_window(b, 1.0 - s))
        .collect();
    median(&figures)
}

/// Median of `reps` timings of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_buckets_by_time_and_passes_the_available_share() {
        // Windows hold {1}, {2}, {9, 9}; the sample at 3.5 s has no window.
        let s = [(0.1, 1.0), (1.5, 2.0), (2.2, 9.0), (2.9, 9.0), (3.5, 100.0)];
        let max = |v: &[f64], _: f64| quantile(v, 1.0);
        assert_eq!(windowed(&s, 1.0, &[0.0, 0.0, 0.0], max), 2.0);
        let scaled = |v: &[f64], avail: f64| quantile(v, 1.0) * avail;
        assert_eq!(windowed(&s, 1.0, &[0.5, 0.0, 0.5], scaled), 2.0);
        assert_eq!(windowed(&s, 1.0, &[0.0, 0.5, 0.0], scaled), 1.0);
    }
}
