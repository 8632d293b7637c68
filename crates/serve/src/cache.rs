//! The LRU result cache.
//!
//! Keyed by `(graph name, graph epoch, canonical params)` — see
//! [`crate::protocol::QueryParams::cache_params`] — and holding the fully
//! rendered `result` JSON fragment, so a hit is served without touching a
//! backend (the integration suite verifies this through the trace op
//! counters). Epochs make invalidation-on-reload free: a replaced graph's
//! entries simply stop matching and age out of the LRU.
//!
//! Recency is tracked with a monotonic tick per entry; eviction scans for
//! the minimum (O(capacity), trivial at the few-hundred-entry capacities
//! the server runs with).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gbtl_util::sync::lock;

/// One cached query outcome.
#[derive(Debug)]
pub struct CachedResult {
    /// The rendered `result` object (a JSON fragment).
    pub result_json: String,
    /// How long the original compute took, microseconds.
    pub compute_micros: u64,
}

/// Build the full cache key from its parts.
pub fn cache_key(graph: &str, epoch: u64, params: &str) -> String {
    use std::fmt::Write;
    // 20 digits hold any u64 epoch
    let mut key = String::with_capacity(graph.len() + params.len() + 22);
    key.push_str(graph);
    let _ = write!(key, "@{epoch}|");
    key.push_str(params);
    key
}

#[derive(Debug, Default)]
struct Inner {
    tick: u64,
    map: HashMap<String, (u64, Arc<CachedResult>)>,
}

/// A bounded LRU cache of query results. Capacity 0 disables caching
/// entirely (every lookup misses, nothing is stored).
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Locked with the poison-tolerant [`lock`]: a critical section is a
    /// tick bump and at most one whole-entry remove and insert, so the map
    /// is valid wherever a holder unwinds, and one request's panic must not
    /// fail every later request's lookup.
    inner: Mutex<Inner>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Configured capacity (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<CachedResult>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some((stamp, v)) => {
                *stamp = tick;
                let v = v.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert `key`, evicting the least-recently-used entry when full.
    pub fn put(&self, key: String, value: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&lru);
            }
        }
        inner.map.insert(key, (tick, Arc::new(value)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(s: &str) -> CachedResult {
        CachedResult {
            result_json: s.into(),
            compute_micros: 1,
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = ResultCache::new(4);
        assert!(c.get("a").is_none());
        c.put("a".into(), result("ra"));
        assert_eq!(c.get("a").unwrap().result_json, "ra");
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = ResultCache::new(2);
        c.put("a".into(), result("ra"));
        c.put("b".into(), result("rb"));
        assert!(c.get("a").is_some()); // refresh a; b is now LRU
        c.put("c".into(), result("rc"));
        assert!(c.get("b").is_none(), "b evicted");
        assert!(c.get("a").is_some() && c.get("c").is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_replaces_without_evicting() {
        let c = ResultCache::new(2);
        c.put("a".into(), result("r1"));
        c.put("b".into(), result("rb"));
        c.put("a".into(), result("r2"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a").unwrap().result_json, "r2");
        assert!(c.get("b").is_some());
    }

    #[test]
    fn a_poisoned_cache_still_hits_misses_and_evicts() {
        let c = Arc::new(ResultCache::new(2));
        c.put("a".into(), result("ra"));
        let shared = c.clone();
        let worker = std::thread::spawn(move || {
            let _held = lock(&shared.inner);
            panic!("a request dies holding the cache");
        });
        assert!(worker.join().is_err());
        assert!(c.inner.is_poisoned());

        assert_eq!(c.get("a").unwrap().result_json, "ra");
        assert!(c.get("b").is_none());
        c.put("b".into(), result("rb"));
        c.put("c".into(), result("rc")); // evicts a, the least recent
        assert!(c.get("a").is_none());
        assert_eq!((c.len(), c.hits(), c.misses()), (2, 1, 2));
    }

    #[test]
    fn zero_capacity_disables() {
        let c = ResultCache::new(0);
        c.put("a".into(), result("ra"));
        assert!(c.get("a").is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 1, "disabled lookups still count as misses");
    }

    #[test]
    fn keys_namespace_graph_and_epoch() {
        let k1 = cache_key("g", 1, "algo=bfs;backend=seq;source=0");
        let k2 = cache_key("g", 2, "algo=bfs;backend=seq;source=0");
        let k3 = cache_key("h", 1, "algo=bfs;backend=seq;source=0");
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }
}
