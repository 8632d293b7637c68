//! Shared order statistics: the nearest-rank percentile definition every
//! latency reporter in the workspace uses.
//!
//! One definition, applied to bucket counts by the metrics histograms
//! (`gbtl_trace::metrics`) and to sorted samples by the benchmark harness
//! and by the histograms' own tests — so a "p99" printed anywhere in the
//! workspace means the same thing.

/// The 0-based index of the nearest-rank `p`-th percentile in a sorted
/// sample of `len` observations: `round((len - 1) * p / 100)`.
///
/// `p` is clamped to `[0, 100]`; `len == 0` returns 0 (callers guard the
/// empty case themselves, typically by reporting 0).
pub fn nearest_rank_index(len: usize, p: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let p = p.clamp(0.0, 100.0);
    ((len - 1) as f64 * p / 100.0).round() as usize
}

/// The nearest-rank `p`-th percentile of an **ascending-sorted** slice;
/// 0 when the slice is empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank_index(sorted.len(), p)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sample, 0.0), 1);
        assert_eq!(percentile_sorted(&sample, 50.0), 51);
        assert_eq!(percentile_sorted(&sample, 99.0), 99);
        assert_eq!(percentile_sorted(&sample, 100.0), 100);
        assert_eq!(percentile_sorted(&[], 99.0), 0);
    }

    #[test]
    fn index_edges() {
        assert_eq!(nearest_rank_index(0, 50.0), 0);
        assert_eq!(nearest_rank_index(1, 99.0), 0);
        assert_eq!(nearest_rank_index(2, 50.0), 1); // round(0.5) = 1
        assert_eq!(nearest_rank_index(10, 100.0), 9);
        // out-of-range p clamps instead of indexing out of bounds
        assert_eq!(nearest_rank_index(10, 250.0), 9);
        assert_eq!(nearest_rank_index(10, -5.0), 0);
    }

    #[test]
    fn single_and_uniform_samples() {
        assert_eq!(percentile_sorted(&[42], 0.0), 42);
        assert_eq!(percentile_sorted(&[42], 100.0), 42);
        let same = [7u64; 16];
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile_sorted(&same, p), 7);
        }
    }
}
