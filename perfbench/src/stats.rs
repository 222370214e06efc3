//! Order statistics and checksums shared by every workload.

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer
/// than ten samples lie beyond it: a tail percentile read off a handful of
/// samples is one outlier, not a distribution.
///
/// `q` is a fraction in `(0, 1)`. The nearest-rank value is
/// `sorted[ceil(q * n) - 1]`, so `n - ceil(q * n)` samples lie beyond it.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile fraction {q} outside (0, 1)");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1].into())
}

/// Samples per latency window: the fewest that leave ten beyond a p99.
pub const WINDOW: usize = 1000;

/// The median, over consecutive windows of [`WINDOW`] samples (in arrival
/// order), of each window's [`percentile`]; `None` without a whole window.
/// A host stall lands in a few windows and moves the median of their
/// percentiles far less than it moves one percentile over the whole run.
pub fn windowed_percentile<T: Copy + Into<f64>>(samples: &[T], q: f64) -> Option<f64> {
    let per_window: Vec<f64> = samples
        .chunks_exact(WINDOW)
        .filter_map(|w| {
            let mut w: Vec<f64> = w.iter().map(|&x| x.into()).collect();
            w.sort_by(f64::total_cmp);
            percentile(&w, q)
        })
        .collect();
    (!per_window.is_empty()).then(|| median(&per_window))
}

/// Median of any sample set: the middle value, or the mean of the two
/// middle values. For the handful of repeated set-ups and iterations a run
/// makes, where [`percentile`] rightly declines to answer.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample set");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sort a sample set in place and return it (for [`percentile`]).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Rounded quartiles of a sample set, for report lines.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    if values.is_empty() {
        return [f64::NAN; 3];
    }
    let v = sorted(values.to_vec());
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize].round();
    [at(0.25), at(0.5), at(0.75)]
}

/// Arithmetic mean (0 for an empty set).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// 64-bit FNV-1a, for the printed checksums (model bytes, Shapley values,
/// request streams). Stable across platforms and runs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a `u64` (little-endian bytes) into the hash.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let v = one_to(1000);
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.9), Some(900.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
    }

    #[test]
    fn percentiles_of_a_skewed_distribution() {
        // 900 fast samples at 1 ms and 100 slow ones at 10 ms: the median
        // sits in the fast mode, p99 in the slow one.
        let v = sorted(
            std::iter::repeat_n(1.0, 900)
                .chain(std::iter::repeat_n(10.0, 100))
                .collect(),
        );
        assert_eq!(percentile(&v, 0.5), Some(1.0));
        assert_eq!(percentile(&v, 0.9), Some(1.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 0.99), Some(10.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // n = 1000: ceil(990) = 990, ten samples beyond p99.
        assert!(percentile(&one_to(1000), 0.99).is_some());
        // n = 999: ceil(989.01) = 990, only nine beyond.
        assert!(percentile(&one_to(999), 0.99).is_none());
        // The median needs twenty samples.
        assert_eq!(percentile(&one_to(20), 0.5), Some(10.0));
        assert!(percentile(&one_to(19), 0.5).is_none());
        assert!(percentile::<f64>(&[], 0.5).is_none());
        // Narrower sample types read the same.
        let narrow: Vec<f32> = (1..=1000).map(|i| i as f32).collect();
        assert_eq!(percentile(&narrow, 0.99), Some(990.0));
    }

    #[test]
    fn windowed_percentile_is_the_median_window() {
        // Three windows of the ramp 1..=1000, the middle one shifted by a
        // stall: the median window reads like an undisturbed one.
        let mut v: Vec<f64> = (0..3).flat_map(|_| one_to(1000)).collect();
        for x in &mut v[1000..2000] {
            *x += 500.0;
        }
        assert_eq!(windowed_percentile(&v, 0.99), Some(990.0));
        assert_eq!(windowed_percentile(&v, 0.5), Some(500.0));
        // A partial window is ignored; no whole window, no answer.
        assert_eq!(windowed_percentile(&v[..1500], 0.99), Some(990.0));
        assert_eq!(windowed_percentile(&v[..999], 0.99), None);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
