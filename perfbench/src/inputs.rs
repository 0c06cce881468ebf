//! Seeded input generation. The seed picks dataset windows, column order,
//! request order and arrival times; the program under test only ever sees
//! the generated inputs.

use fcbench_core::{DataDesc, FloatData};
use fcbench_datasets::{find, generate};

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent `stream` of the run's `seed`, so
    /// adding draws to one stream never shifts another.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` of 0 is treated as 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Generate catalog dataset `name` with a quarter more elements than the
/// windows cut from it need, so the seed has room to place them.
pub fn source(name: &str, elems: usize) -> FloatData {
    let spec = find(name).unwrap_or_else(|| panic!("{name} is not a catalog dataset"));
    generate(&spec, elems + elems / 4)
}

/// A window of about `elems` elements along the slowest axis, at a
/// seed-chosen offset. The faster axes are kept whole, so the codecs that
/// use dimensions see the same shape as the source.
pub fn window_axis0(data: &FloatData, elems: usize, rng: &mut Rng) -> FloatData {
    let dims = &data.desc().dims;
    let plane: usize = dims[1..].iter().product();
    let rows = (elems / plane.max(1)).clamp(1, dims[0]);
    let start = rng.below(dims[0] - rows + 1);
    let esize = data.desc().precision.bytes();
    let mut wdims = dims.clone();
    wdims[0] = rows;
    let desc = DataDesc::new(data.desc().precision, wdims, data.desc().domain)
        .expect("a window of a valid shape is valid");
    let bytes = data.bytes()[start * plane * esize..(start + rows) * plane * esize].to_vec();
    FloatData::from_bytes(desc, bytes).expect("window length matches its shape")
}

/// Exactly `elems` consecutive elements of the flattened data, as raw bytes,
/// at a seed-chosen offset.
pub fn window_flat(data: &FloatData, elems: usize, rng: &mut Rng) -> Vec<u8> {
    let esize = data.desc().precision.bytes();
    let total = data.elements();
    assert!(
        total >= elems,
        "source holds {total} elements, window needs {elems}"
    );
    let start = rng.below(total - elems + 1);
    data.bytes()[start * esize..(start + elems) * esize].to_vec()
}

/// FNV-1a over byte slices: a cheap fingerprint for the determinism test.
pub fn fingerprint<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in part {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
