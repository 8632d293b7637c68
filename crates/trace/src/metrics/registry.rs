//! The labeled metric registry: named counters, gauges, and histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gbtl_util::sync::lock;

use super::histogram::{Histogram, HistogramSnapshot};

/// A monotonic counter. Always live (a relaxed atomic add is the cost
/// floor of any counter, so there is nothing to gate).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge (queue depth, cache occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A metric's identity: name plus sorted label pairs. The sort makes the
/// key canonical, so `[("a","1"),("b","2")]` and `[("b","2"),("a","1")]`
/// name the same metric.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (`gbtl_request_latency_us`).
    pub name: String,
    /// Sorted `(label, value)` pairs; empty for unlabeled metrics.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a canonical key from a name and label pairs (any order).
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Arc<Counter>>,
    gauges: BTreeMap<MetricKey, Arc<Gauge>>,
    histograms: BTreeMap<MetricKey, Arc<Histogram>>,
}

/// The shared metric registry. A lookup (`counter`/`gauge`/`histogram`)
/// builds a [`MetricKey`], takes the one mutex and walks a map, so it is
/// for resolving a series once, not for a hot path: the serving pool holds
/// its unlabelled counters in `ServerStats` and its per-query series in a
/// table of lazily resolved handles, so a request observes atomics only.
/// A disabled registry hands out disabled histograms (observe = one
/// branch) — the `TraceMode::Off` contract.
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// A new registry; `enabled` gates histogram recording (and is what
    /// callers consult before taking timing reads at all).
    pub fn new(enabled: bool) -> Self {
        Registry {
            enabled,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Whether histograms hand out real recordings.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The counter named `name` with `labels`, created on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        let mut inner = lock(&self.inner);
        inner.counters.entry(key).or_default().clone()
    }

    /// The gauge named `name` with `labels`, created on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        let mut inner = lock(&self.inner);
        inner.gauges.entry(key).or_default().clone()
    }

    /// The histogram named `name` with `labels`, created on first use
    /// (disabled when the registry is).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        let mut inner = lock(&self.inner);
        inner
            .histograms
            .entry(key)
            .or_insert_with(|| Arc::new(Histogram::new(self.enabled)))
            .clone()
    }

    /// The `gbtl_stage_latency_us` series of one stage of one
    /// (`algo`, `backend`, `cache`) triple, created on first use — the
    /// handle a [`Stage`] wraps.
    pub fn stage_histogram(&self, labels: [(&str, &str); 3], stage: &str) -> Arc<Histogram> {
        let [algo, backend, cache] = labels;
        self.histogram(
            "gbtl_stage_latency_us",
            &[algo, backend, cache, ("stage", stage)],
        )
    }

    /// A point-in-time copy of every registered metric, sorted by
    /// (name, labels). This is what the exposition renderers consume.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = lock(&self.inner);
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Merge every histogram snapshot whose key name is `name` into one
    /// (the all-labels aggregate).
    pub fn merged_histogram(&self, name: &str) -> HistogramSnapshot {
        let inner = lock(&self.inner);
        let mut merged = HistogramSnapshot::default();
        for (k, h) in &inner.histograms {
            if k.name == name {
                merged.merge(&h.snapshot());
            }
        }
        merged
    }
}

/// The histogram sink's address: one resolved `gbtl_stage_latency_us{algo,
/// backend, cache, stage}` series ([`Registry::stage_histogram`]). Built by
/// the layer that owns the handle, observed by [`crate::emit`] alone — so a
/// stage's histogram sample and its span are the same two stamps.
#[derive(Debug, Clone, Copy)]
pub struct Stage<'a>(pub &'a Histogram);

impl Stage<'_> {
    pub(crate) fn observe(&self, micros: u64) {
        self.0.observe(micros);
    }
}

/// A point-in-time copy of a whole [`Registry`], sorted by key.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricKey, i64)>,
    /// Histogram snapshots.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Return this snapshot with `(label, value)` added to every metric
    /// key (re-canonicalized, so the result stays sorted). The
    /// scatter-gather router uses this to stamp each shard's snapshot
    /// with `shard="i"` before merging, which keeps per-shard series
    /// distinct in the merged expositions.
    pub fn with_label(mut self, label: &str, value: &str) -> RegistrySnapshot {
        fn relabel(key: &mut MetricKey, label: &str, value: &str) {
            key.labels.push((label.to_string(), value.to_string()));
            key.labels.sort();
        }
        for (k, _) in &mut self.counters {
            relabel(k, label, value);
        }
        for (k, _) in &mut self.gauges {
            relabel(k, label, value);
        }
        for (k, _) in &mut self.histograms {
            relabel(k, label, value);
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        self
    }

    /// Fold `other` into `self`: metrics with identical keys combine
    /// (counters and gauges sum, histograms merge bucket-wise); new keys
    /// are inserted in sort order. Merging N relabeled shard snapshots
    /// therefore yields exactly the concatenation of their series, and
    /// merging *unlabeled* snapshots yields exact sums — both uses rely
    /// on every entry surviving with nothing dropped.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        fn fold<V: Clone>(
            into: &mut Vec<(MetricKey, V)>,
            from: &[(MetricKey, V)],
            combine: impl Fn(&mut V, &V),
        ) {
            for (k, v) in from {
                match into.binary_search_by(|(ek, _)| ek.cmp(k)) {
                    Ok(i) => combine(&mut into[i].1, v),
                    Err(i) => into.insert(i, (k.clone(), v.clone())),
                }
            }
        }
        fold(&mut self.counters, &other.counters, |a, b| *a += *b);
        fold(&mut self.gauges, &other.gauges, |a, b| *a += *b);
        fold(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_handle_any_label_order() {
        let r = Registry::new(true);
        let a = r.counter("reqs", &[("algo", "bfs"), ("backend", "par")]);
        let b = r.counter("reqs", &[("backend", "par"), ("algo", "bfs")]);
        assert!(Arc::ptr_eq(&a, &b));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // a different label value is a different metric
        let c = r.counter("reqs", &[("algo", "cc"), ("backend", "par")]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn snapshot_lists_everything_sorted() {
        let r = Registry::new(true);
        r.counter("z_total", &[]).inc();
        r.counter("a_total", &[("k", "2")]).add(5);
        r.counter("a_total", &[("k", "1")]).add(4);
        r.gauge("depth", &[]).set(-3);
        r.histogram("lat", &[("b", "x")]).observe(100);
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 3);
        assert_eq!(s.counters[0].0.name, "a_total");
        assert_eq!(s.counters[0].0.labels, vec![("k".into(), "1".into())]);
        assert_eq!(s.counters[0].1, 4);
        assert_eq!(s.counters[2].0.name, "z_total");
        assert_eq!(s.gauges, vec![(MetricKey::new("depth", &[]), -3)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].1.count, 1);
    }

    #[test]
    fn disabled_registry_gates_histograms_not_counters() {
        let r = Registry::new(false);
        assert!(!r.enabled());
        let h = r.histogram("lat", &[]);
        h.observe(5);
        assert_eq!(h.count(), 0, "disabled histogram records nothing");
        let c = r.counter("reqs", &[]);
        c.inc();
        assert_eq!(c.get(), 1, "counters stay live");
    }

    #[test]
    fn with_label_stamps_every_key_canonically() {
        let r = Registry::new(true);
        r.counter("reqs", &[("zz", "1")]).add(7);
        r.gauge("depth", &[]).set(3);
        r.histogram("lat", &[("algo", "bfs")]).observe(10);
        let s = r.snapshot().with_label("shard", "2");
        assert_eq!(
            s.counters[0].0.labels,
            vec![("shard".into(), "2".into()), ("zz".into(), "1".into())],
            "labels re-sorted after the stamp"
        );
        assert_eq!(s.gauges[0].0.labels, vec![("shard".into(), "2".into())]);
        assert_eq!(
            s.histograms[0].0.labels,
            vec![("algo".into(), "bfs".into()), ("shard".into(), "2".into())]
        );
    }

    #[test]
    fn merge_sums_identical_keys_and_keeps_distinct_ones() {
        let a = Registry::new(true);
        a.counter("reqs", &[]).add(3);
        a.gauge("depth", &[]).set(2);
        a.histogram("lat", &[]).observe(10);
        let b = Registry::new(true);
        b.counter("reqs", &[]).add(4);
        b.counter("only_b", &[]).add(1);
        b.gauge("depth", &[]).set(5);
        b.histogram("lat", &[]).observe(30);

        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counters.len(), 2);
        let reqs = m
            .counters
            .iter()
            .find(|(k, _)| k.name == "reqs")
            .expect("reqs survives");
        assert_eq!(reqs.1, 7, "identical counter keys sum");
        assert_eq!(m.gauges[0].1, 7, "gauges sum too");
        assert_eq!(m.histograms[0].1.count, 2);
        assert_eq!(m.histograms[0].1.sum, 40);

        // relabeled snapshots have disjoint keys: merge = concatenation
        let mut distinct = a.snapshot().with_label("shard", "0");
        distinct.merge(&b.snapshot().with_label("shard", "1"));
        assert_eq!(distinct.counters.len(), 3);
        assert!(
            distinct.counters.windows(2).all(|w| w[0].0 < w[1].0),
            "merged snapshot stays sorted"
        );
    }

    #[test]
    fn merged_histogram_spans_label_sets() {
        let r = Registry::new(true);
        r.histogram("lat", &[("algo", "bfs")]).observe(10);
        r.histogram("lat", &[("algo", "cc")]).observe(1000);
        r.histogram("other", &[]).observe(9);
        let m = r.merged_histogram("lat");
        assert_eq!(m.count, 2);
        assert_eq!(m.sum, 1010);
        assert_eq!(m.max, 1000);
    }
}
