//! The log₂-bucketed latency histogram and its mergeable snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

use gbtl_util::stats::nearest_rank_index;

/// Number of buckets: index 0 holds exact zeros, index `i` (1..=63) holds
/// values in `[2^(i-1), 2^i - 1]`, index 64 holds `[2^63, u64::MAX]`.
pub const BUCKETS: usize = 65;

/// The bucket index for a value (its bit length).
#[inline]
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (the Prometheus `le`).
#[inline]
pub(crate) fn bucket_le(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A fixed-bucket log₂ histogram of `u64` observations (latencies in
/// microseconds, by convention).
///
/// `observe` on an enabled histogram is three relaxed atomic adds and one
/// atomic max; on a disabled one it is a single branch. Counts are exact —
/// only the *position* of an observation inside its power-of-two bucket is
/// lost, so a percentile read from a snapshot is the bucket's upper bound
/// (at most 2× the true value, exact for counts of zeros).
#[derive(Debug)]
pub struct Histogram {
    enabled: bool,
    buckets: [AtomicU64; BUCKETS],
    /// Per-bucket exemplar: the most recent nonzero trace id observed into
    /// that bucket (0 = none). Lets a dashboard jump from "the p99 bucket"
    /// straight to one concrete x-ray trace that landed there.
    exemplars: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A new empty histogram; `enabled = false` makes `observe` a no-op
    /// (one branch, per the crate overhead contract).
    pub fn new(enabled: bool) -> Self {
        Histogram {
            enabled,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Whether `observe` records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !self.enabled {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record one observation and, when `trace_id` is nonzero, stamp it as
    /// the bucket's exemplar (latest writer wins — an exemplar is a pointer
    /// to *one* representative trace, not a log). Same cost as [`observe`]
    /// plus at most one relaxed store.
    ///
    /// [`observe`]: Histogram::observe
    #[inline]
    pub fn observe_with_exemplar(&self, v: u64, trace_id: u64) {
        if !self.enabled {
            return;
        }
        self.observe(v);
        if trace_id != 0 {
            self.exemplars[bucket_index(v)].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts and totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            exemplars: std::array::from_fn(|i| self.exemplars[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`]: mergeable, and the thing
/// percentiles are computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`BUCKETS`] for the layout).
    pub buckets: [u64; BUCKETS],
    /// Per-bucket exemplar trace ids (0 = none); see
    /// [`Histogram::observe_with_exemplar`].
    pub exemplars: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            exemplars: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot into this one (bucket-wise addition). Used by
    /// the server to derive the all-requests histogram from the
    /// per-(algo, backend, cache) ones.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        // exemplars are pointers, not counts: keep the other side's when it
        // has one (latest-writer-wins, same as the live histogram)
        for (e, &o) in self.exemplars.iter_mut().zip(other.exemplars.iter()) {
            if o != 0 {
                *e = o;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// No observations?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The nearest-rank `p`-th percentile, resolved to the upper bound of
    /// the bucket holding that rank (0 when empty). Uses the shared
    /// [`gbtl_util::stats::nearest_rank_index`] definition, so it names
    /// the same observation a sorted-sample percentile would — reported at
    /// its bucket's resolution.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank_index(self.count as usize, p) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative > rank {
                // never report a bound above the exactly-tracked max
                return bucket_le(i).min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs, in order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_le(i), n))
            .collect()
    }

    /// The non-empty buckets as `(upper_bound, count, exemplar_trace_id)`
    /// triples (exemplar 0 = no traced request has landed in the bucket).
    pub fn nonzero_buckets_with_exemplars(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_le(i), n, self.exemplars[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(10), 1023);
        assert_eq!(bucket_le(64), u64::MAX);
        // every value lands in a bucket whose range contains it
        for v in [0u64, 1, 2, 3, 7, 8, 100, 4095, 4096, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_le(i), "v={v} bucket={i}");
            if i > 0 {
                assert!(v > bucket_le(i - 1), "v={v} bucket={i}");
            }
        }
    }

    #[test]
    fn observe_tracks_exact_count_sum_max() {
        let h = Histogram::new(true);
        for v in [0u64, 1, 5, 5, 1000, 70_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 71_011);
        assert_eq!(s.max, 70_000);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 1); // the one
        assert_eq!(s.buckets[3], 2); // both fives
        assert_eq!(s.nonzero_buckets().len(), 5);
        assert_eq!(s.mean(), 71_011 / 6);
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let h = Histogram::new(false);
        assert!(!h.enabled());
        h.observe(42);
        assert_eq!(h.count(), 0);
        assert!(h.snapshot().is_empty());
        assert_eq!(h.snapshot().percentile(99.0), 0);
    }

    #[test]
    fn percentiles_from_buckets_bound_the_true_value() {
        let h = Histogram::new(true);
        let sample: Vec<u64> = (1..=1000).collect();
        for &v in &sample {
            h.observe(v);
        }
        let s = h.snapshot();
        for p in [50.0, 95.0, 99.0, 100.0] {
            let exact = gbtl_util::stats::percentile_sorted(&sample, p);
            let bucketed = s.percentile(p);
            assert!(
                bucketed >= exact && bucketed < exact.max(1) * 2,
                "p{p}: bucketed {bucketed} vs exact {exact}"
            );
        }
        // p100 respects the exact max rather than the bucket bound
        assert_eq!(s.percentile(100.0), 1000);
    }

    #[test]
    fn percentiles_on_point_masses_are_exact_at_bucket_resolution() {
        let h = Histogram::new(true);
        for _ in 0..99 {
            h.observe(0);
        }
        h.observe(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.percentile(98.0), 0);
        // the single large value is the p100 (rank 99 of 100)
        assert_eq!(s.percentile(100.0), 1 << 20);
    }

    #[test]
    fn exemplars_track_latest_trace_per_bucket() {
        let h = Histogram::new(true);
        h.observe(5); // untraced: bucket counted, no exemplar
        h.observe_with_exemplar(6, 41);
        h.observe_with_exemplar(7, 42); // same bucket as 6 and 5: latest wins
        h.observe_with_exemplar(1000, 0); // trace_id 0 = untraced
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        let triples = s.nonzero_buckets_with_exemplars();
        assert_eq!(triples, vec![(7, 3, 42), (1023, 1, 0)]);
        // merge keeps the side that has an exemplar
        let other = Histogram::new(true);
        other.observe_with_exemplar(1000, 99);
        let mut m = s;
        m.merge(&other.snapshot());
        assert_eq!(
            m.nonzero_buckets_with_exemplars(),
            vec![(7, 3, 42), (1023, 2, 99)]
        );
        // disabled histograms stay silent
        let off = Histogram::new(false);
        off.observe_with_exemplar(5, 7);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let a = Histogram::new(true);
        let b = Histogram::new(true);
        for v in [1u64, 10, 100] {
            a.observe(v);
        }
        for v in [1000u64, 10_000] {
            b.observe(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 5);
        assert_eq!(m.sum, 11_111);
        assert_eq!(m.max, 10_000);
        // merging equals observing everything into one histogram
        let all = Histogram::new(true);
        for v in [1u64, 10, 100, 1000, 10_000] {
            all.observe(v);
        }
        assert_eq!(m, all.snapshot());
        // and the merged percentile sees both sides
        assert!(m.percentile(99.0) >= 10_000);
    }
}
