//! Order statistics the harness reports with: median, nearest-rank
//! percentiles (the workspace's one definition, from `gbtl_util::stats`),
//! and the quartiles the driver uses to judge run-to-run spread.

use gbtl_util::stats::nearest_rank_index;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The midmean of a sample: the mean of its middle half (25th to 75th
/// percentile). A median that does not jump when the sample sits in
/// clusters — the sixteen requests of a fused volley finish together, a
/// round's solves are of four kinds — and the middle falls between two of
/// them. 0 when empty; the plain [`median`] for fewer than eight values.
pub fn mid_mean(values: &[f64]) -> f64 {
    if values.len() < 8 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, (v.len() * 3).div_ceil(4));
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Nearest-rank `p`-th percentile of an unsorted sample; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank_index(v.len(), p)]
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an unsorted sample, interpolated
/// linearly between the two nearest order statistics (position
/// `q · (n − 1)`); 0 when empty. `quantile(v, 0.5)` is [`median`].
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (default "exclusive" method) gives
/// them — the definition the driver applies to ten runs of each metric.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        // j = i*(n+1) div 4, clamped to [1, n-1]; delta = i*(n+1) - j*4
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// `part ÷ whole`, 0 when `whole` is not positive — every share and rate
/// the harness reports.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Run-to-run spread: (Q3 − Q1) ÷ median, 0 when undefined.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m.abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn mid_mean_averages_the_middle_half() {
        // two clusters: the median sits in the gap and crosses it with one
        // value; the middle half averages both sides
        let v = [1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0];
        assert_eq!(mid_mean(&v), 5.0);
        let ramp: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(mid_mean(&ramp), 49.5); // mean of 25..=74
        assert_eq!(
            mid_mean(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 900.0]),
            5.0
        );
        assert_eq!(mid_mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mid_mean(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [5.0, 9.0, 1.0, 30.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), median(&v));
        assert_eq!(quantile(&v, 1.0), 30.0);
        assert_eq!(quantile(&[1.0, 3.0], 0.25), 1.5);
        assert_eq!(quantile(&[], 0.25), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
