//! A bounded top-K-by-latency log of arbitrary payloads.

use std::sync::Mutex;

use gbtl_util::sync::lock;

/// One retained entry: the ranking key plus an admission sequence number
/// (for stable tie ordering).
#[derive(Debug, Clone)]
struct Entry<T> {
    key: u64,
    seq: u64,
    payload: T,
}

#[derive(Debug)]
struct SlowInner<T> {
    seq: u64,
    entries: Vec<Entry<T>>,
}

/// A bounded log keeping the `capacity` entries with the **largest** keys
/// ever offered (top-K by latency, in gbtl-serve's use). `offer` is O(K)
/// under a short mutex hold; K is small (default 16), so this stays off
/// the contended path. Capacity 0 disables the log entirely.
#[derive(Debug)]
pub struct SlowLog<T> {
    capacity: usize,
    inner: Mutex<SlowInner<T>>,
}

impl<T: Clone> SlowLog<T> {
    /// An empty log retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            capacity,
            inner: Mutex::new(SlowInner {
                seq: 0,
                entries: Vec::with_capacity(capacity),
            }),
        }
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// No entries retained?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offer an entry ranked by `key`. Kept if the log has room or `key`
    /// strictly exceeds the current minimum (ties keep the incumbent, so a
    /// stream of equal keys doesn't churn the log); `payload` is called
    /// only for an entry that is kept, so a refused offer builds nothing.
    /// Returns whether the entry was admitted — callers can react to "this
    /// one is slow enough to keep" (gbtl-serve pins the entrant's x-ray
    /// trace).
    pub fn offer(&self, key: u64, payload: impl FnOnce() -> T) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut inner = lock(&self.inner);
        let seq = inner.seq;
        inner.seq += 1;
        if inner.entries.len() < self.capacity {
            inner.entries.push(Entry {
                key,
                seq,
                payload: payload(),
            });
            return true;
        }
        // evict the smallest key (oldest first on ties) if the newcomer beats it
        let (min_idx, min_key) = inner
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.key, e.seq))
            .map(|(i, e)| (i, e.key))
            .expect("capacity > 0 and log full");
        if key > min_key {
            inner.entries[min_idx] = Entry {
                key,
                seq,
                payload: payload(),
            };
            return true;
        }
        false
    }

    /// The retained entries as `(key, payload)` pairs, largest key first
    /// (oldest first on ties).
    pub fn entries(&self) -> Vec<(u64, T)> {
        let inner = lock(&self.inner);
        let mut sorted: Vec<Entry<T>> = inner.entries.clone();
        drop(inner);
        sorted.sort_by_key(|e| (std::cmp::Reverse(e.key), e.seq));
        sorted.into_iter().map(|e| (e.key, e.payload)).collect()
    }

    /// Drop every retained entry (the admission sequence keeps counting).
    pub fn clear(&self) {
        lock(&self.inner).entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_exactly_the_top_k() {
        let log = SlowLog::new(3);
        // offer 1..=10 in a scrambled order; only {10, 9, 8} may survive
        for key in [4u64, 9, 1, 10, 2, 6, 3, 8, 5, 7] {
            log.offer(key, || format!("req-{key}"));
        }
        let kept = log.entries();
        assert_eq!(
            kept,
            vec![
                (10, "req-10".to_string()),
                (9, "req-9".to_string()),
                (8, "req-8".to_string()),
            ]
        );
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn ties_keep_the_incumbent() {
        let log = SlowLog::new(2);
        assert!(log.offer(5, || "first"));
        assert!(log.offer(5, || "second"));
        assert!(!log.offer(5, || "third")); // equal key: incumbent stays
        assert_eq!(log.entries(), vec![(5, "first"), (5, "second")]);
        assert!(log.offer(6, || "fourth")); // strictly larger: evicts the older 5
        assert_eq!(log.entries(), vec![(6, "fourth"), (5, "second")]);
    }

    #[test]
    fn a_refused_offer_builds_no_payload() {
        let log = SlowLog::new(1);
        assert!(log.offer(5, || "kept"));
        assert!(!log.offer(4, || -> &str { panic!("built a refused payload") }));
        assert_eq!(log.entries(), vec![(5, "kept")]);
    }

    #[test]
    fn capacity_zero_disables() {
        let log = SlowLog::new(0);
        assert!(!log.offer(100, || "x"));
        assert!(log.is_empty());
        assert!(log.entries().is_empty());
    }

    #[test]
    fn clear_empties_the_log() {
        let log = SlowLog::new(4);
        log.offer(1, || "a");
        log.offer(2, || "b");
        assert_eq!(log.len(), 2);
        log.clear();
        assert!(log.is_empty());
        log.offer(3, || "c");
        assert_eq!(log.entries(), vec![(3, "c")]);
    }
}
