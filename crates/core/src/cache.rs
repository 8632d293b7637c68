//! The per-context transpose cache: `Aᵀ` built once per matrix version.
//!
//! Pull-direction traversal (`mxv` with `desc.transpose_a`, the pull half
//! of direction-optimized BFS) needs the transposed adjacency on **every
//! iteration**, but the matrix itself almost never changes between
//! iterations. Gunrock's direction-optimized traversal and GraphBLAST's
//! operand-reuse design both presume CSR and CSC (= `Aᵀ` in CSR form) stay
//! resident across iterations; this cache is the frontend mechanism that
//! makes the same true here, for every backend at once.
//!
//! Entries are keyed by `(matrix id, matrix version, element TypeId)` —
//! versions are process-globally unique per content (see
//! [`crate::types::Matrix::version`]), so a stale transpose can never be
//! served: a mutated matrix presents a version no cache entry carries.
//! Values are type-erased `Arc<CsrMatrix<T>>`, shared directly with every
//! consumer (no copies on hit). The store is a small LRU guarded by a
//! mutex; the `O(nnz)` transpose build happens **outside** the lock.
//!
//! Entries come in two classes. *Computed* entries — a query needed `Aᵀ`
//! and built it — are the LRU, bounded by the capacity. *Pinned* entries —
//! placed by a seed or a prewarm when a graph is loaded or restored, and
//! every entry that holds its matrix's own buffer — stand outside both the
//! bound and the LRU order: no number of computed entries evicts them, so a
//! served graph stays pull-eligible whatever else the server computes. A pinned
//! entry lives exactly as long as the matrix buffer it transposes (it holds
//! a `Weak` to it): when the graph is unloaded or replaced by a reload and
//! its last handle drops, the entry — unreachable from then on — is swept at
//! the next insert. A symmetric matrix seeded as its own transpose is held
//! by that `Weak` alone, so the cache never keeps a graph's buffer alive,
//! in however many stores or under however many ids it was seeded.
//! [`TransposeCache::get_or_share`], the `Context` paths, finds the same
//! without being told: on a miss, a matrix whose transpose would be itself
//! bit for bit is held the same way instead of copied.
//! [`TransposeCache::clear`] drops everything.
//!
//! The cache is internally shared: cloning a `TransposeCache` yields a
//! handle to the same store, which is how `gbtl-serve` gives all worker
//! engines (and all three backends) one pre-warmed cache. Cross-backend
//! sharing is sound because `transpose` is bit-identical across backends
//! (the backend-equivalence suite asserts it).
//!
//! No knob: every context memoizes. The LRU bound is the constant
//! [`DEFAULT_CAPACITY`]: it governs computed transposes only, and no
//! workload was ever found to want another. [`TransposeCache::disabled`]
//! is the memoization-free reference the differential tests run against.

use std::any::{Any, TypeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use gbtl_algebra::Scalar;
use gbtl_sparse::CsrMatrix;
use gbtl_util::sync::lock;

/// Maximum number of computed transposes a store keeps (entries pinned by a
/// graph load are outside the bound).
pub const DEFAULT_CAPACITY: usize = 8;

/// One cached transpose: the source matrix's `(id, version)`, the element
/// type, and the shared transposed CSR.
struct Entry {
    id: u64,
    version: u64,
    ty: TypeId,
    /// The transpose, owned — `None` when the matrix is its own transpose
    /// (seeded, or found so on a miss): that one is `pin` upgraded, so the
    /// cache never keeps a graph's buffer alive.
    value: Option<Arc<dyn Any + Send + Sync>>,
    /// Set by a seed/prewarm — the source matrix's buffer: the entry is
    /// exempt from the capacity bound for as long as that is alive.
    pin: Option<Weak<dyn Any + Send + Sync>>,
}

impl Entry {
    fn unreachable(&self) -> bool {
        self.pin.as_ref().is_some_and(|p| p.strong_count() == 0)
    }

    fn transpose(&self) -> Option<Arc<dyn Any + Send + Sync>> {
        self.value.clone().or_else(|| self.pin.as_ref()?.upgrade())
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    seeds: AtomicU64,
}

struct Inner {
    enabled: bool,
    capacity: usize,
    /// LRU order: least-recently-used first, most-recent last. Taken with
    /// the poison-tolerant [`lock`]: every critical section is whole-entry
    /// `Vec` moves (builds run outside it), so the store is a valid cache
    /// wherever a holder unwinds, and one worker's panic must not turn
    /// every other engine's next transposed operand into a second panic.
    entries: Mutex<Vec<Entry>>,
    counters: Counters,
}

/// A shared, versioned, bounded cache of matrix transposes.
///
/// `Clone` shares the underlying store (and counters) — see the module
/// docs for the serving-layer sharing pattern.
#[derive(Clone)]
pub struct TransposeCache {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for TransposeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("TransposeCache")
            .field("enabled", &s.enabled)
            .field("capacity", &s.capacity)
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

/// Point-in-time counters of a [`TransposeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransposeCacheStats {
    /// Whether lookups consult the store at all.
    pub enabled: bool,
    /// Maximum resident computed (not pinned) entries.
    pub capacity: usize,
    /// Currently resident entries, pinned ones included.
    pub entries: usize,
    /// Resident entries placed by a seed/prewarm (outside the capacity
    /// bound while their matrix is alive).
    pub pinned: usize,
    /// Lookups served from the store (no transpose built).
    pub hits: u64,
    /// Lookups that had to build the transpose.
    pub misses: u64,
    /// Computed entries dropped by the LRU capacity bound.
    pub evictions: u64,
    /// Entries dropped because their matrix changed or is gone.
    pub invalidations: u64,
    /// Entries installed via [`TransposeCache::seed`] (prewarms; counted
    /// as neither hit nor miss, but visible so operators can confirm a
    /// hot-loaded graph became pull-eligible).
    pub seeds: u64,
}

impl TransposeCacheStats {
    /// Fraction of lookups served from the store, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Default for TransposeCache {
    fn default() -> Self {
        Self::from_env()
    }
}

impl TransposeCache {
    /// The default cache, as [`Default`]: enabled, holding at most
    /// [`DEFAULT_CAPACITY`] computed transposes. Reads no environment.
    pub fn from_env() -> Self {
        Self::new(true, DEFAULT_CAPACITY)
    }

    /// An enabled cache holding at most `capacity` transposes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(true, capacity.max(1))
    }

    /// A cache that never stores anything: every lookup builds fresh.
    /// What the differential tests use as the memoization-free reference.
    pub fn disabled() -> Self {
        Self::new(false, DEFAULT_CAPACITY)
    }

    fn new(enabled: bool, capacity: usize) -> Self {
        TransposeCache {
            inner: Arc::new(Inner {
                enabled,
                capacity,
                entries: Mutex::new(Vec::new()),
                counters: Counters::default(),
            }),
        }
    }

    /// Whether lookups consult the store.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The transpose of the matrix identified by `(id, version)`, served
    /// shared from the store when present, else built with `build` (outside
    /// the store lock) and inserted as a computed entry.
    pub fn get_or_build<T: Scalar>(
        &self,
        id: u64,
        version: u64,
        build: impl FnOnce() -> CsrMatrix<T>,
    ) -> Arc<CsrMatrix<T>> {
        self.lookup(id, version, None, || (Arc::new(build()), false))
    }

    /// The transpose of `source`, the buffer of the matrix identified by
    /// `(id, version)`, served as [`TransposeCache::get_or_build`] serves
    /// it, but a miss on a matrix that is its own transpose bit for bit
    /// ([`CsrMatrix::is_own_transpose`]: one sweep, no copy) builds
    /// nothing: `source` itself is served, its entry holds only a `Weak` to
    /// it, as a seed's does, and `charge` runs in place of `build` (a
    /// device still prices the transpose). That entry costs nothing, so it
    /// is pinned whichever path placed it; `pin` pins a built one for as
    /// long as `source` is alive (the prewarm path; a hit pins its entry in
    /// place). Counts a hit or a miss like any lookup, never a seed. A
    /// disabled cache always builds.
    pub fn get_or_share<T: Scalar>(
        &self,
        id: u64,
        version: u64,
        source: &Arc<CsrMatrix<T>>,
        pin: bool,
        charge: impl FnOnce(),
        build: impl FnOnce() -> CsrMatrix<T>,
    ) -> Arc<CsrMatrix<T>> {
        let pin = pin.then(|| Arc::downgrade(source) as Weak<dyn Any + Send + Sync>);
        self.lookup(id, version, pin, || {
            if self.inner.enabled && source.is_own_transpose() {
                charge();
                (Arc::clone(source), true)
            } else {
                (Arc::new(build()), false)
            }
        })
    }

    /// Serve `(id, version)` from the store, or count a miss and insert what
    /// `miss` gives: the transpose, and whether it is the matrix's own
    /// buffer (held by a `Weak` alone, pinned).
    fn lookup<T: Scalar>(
        &self,
        id: u64,
        version: u64,
        pin: Option<Weak<dyn Any + Send + Sync>>,
        miss: impl FnOnce() -> (Arc<CsrMatrix<T>>, bool),
    ) -> Arc<CsrMatrix<T>> {
        let c = &self.inner.counters;
        if !self.inner.enabled {
            c.misses.fetch_add(1, Ordering::Relaxed);
            return miss().0;
        }
        let ty = TypeId::of::<T>();
        {
            let mut entries = lock(&self.inner.entries);
            if let Some(pos) = entries
                .iter()
                .position(|e| e.id == id && e.version == version && e.ty == ty)
            {
                let mut entry = entries.remove(pos);
                if let Some(value) = entry.transpose() {
                    entry.pin = entry.pin.or(pin);
                    entries.push(entry); // most-recently-used at the back
                    c.hits.fetch_add(1, Ordering::Relaxed);
                    return value
                        .downcast::<CsrMatrix<T>>()
                        .expect("entry type matches its TypeId key");
                }
                // seeded from a buffer that is gone: a miss like any other
                c.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
        c.misses.fetch_add(1, Ordering::Relaxed);
        let (transpose, own) = miss();
        let erased = Arc::clone(&transpose) as Arc<dyn Any + Send + Sync>;
        let (value, pin) = if own {
            (None, Some(Arc::downgrade(&erased)))
        } else {
            (Some(erased), pin)
        };
        self.insert(Entry {
            id,
            version,
            ty,
            value,
            pin,
        });
        transpose
    }

    /// Insert `entry`, dropping any resident generation of its matrix (now
    /// stale, or — if a racing thread inserted this same version —
    /// redundant) and every pinned entry whose matrix is gone, then evict
    /// least-recently-used *computed* entries down to the capacity.
    fn insert(&self, entry: Entry) {
        let c = &self.inner.counters;
        let mut entries = lock(&self.inner.entries);
        let before = entries.len();
        let same_matrix = |e: &Entry| e.id == entry.id && e.ty == entry.ty;
        entries.retain(|e| !(same_matrix(e) || e.unreachable()));
        c.invalidations
            .fetch_add((before - entries.len()) as u64, Ordering::Relaxed);
        entries.push(entry);
        let mut computed = entries.iter().filter(|e| e.pin.is_none()).count();
        while computed > self.inner.capacity {
            let lru = entries
                .iter()
                .position(|e| e.pin.is_none())
                .expect("a computed entry is resident");
            entries.remove(lru);
            computed -= 1;
            c.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Install `value` — a symmetric matrix's own buffer — as that matrix's
    /// transpose without building anything: the zero-cost prewarm. The
    /// cache keeps only a `Weak` to it, and the entry is pinned for as long
    /// as the buffer is alive. Counts as neither hit nor miss; stale
    /// generations of the same matrix are invalidated exactly as on a built
    /// insert. No-op when the cache is disabled.
    pub fn seed<T: Scalar>(&self, id: u64, version: u64, value: &Arc<CsrMatrix<T>>) {
        if !self.inner.enabled {
            return;
        }
        self.inner.counters.seeds.fetch_add(1, Ordering::Relaxed);
        self.insert(Entry {
            id,
            version,
            ty: TypeId::of::<T>(),
            value: None,
            pin: Some(Arc::downgrade(value) as Weak<dyn Any + Send + Sync>),
        });
    }

    /// Whether the transpose of the matrix identified by `(id, version)`
    /// is resident right now: [`TransposeCache::peek`] for the direction
    /// policy's cache-residency gate.
    pub fn contains<T: Scalar>(&self, id: u64, version: u64) -> bool {
        self.peek::<T>(id, version).is_some()
    }

    /// The transpose of the matrix identified by `(id, version)`, if it is
    /// resident: a pure peek — it does not build, does not touch the LRU
    /// order, and counts as neither hit nor miss. Probing "would pull be
    /// cheap?" every level, or pricing a pull no one runs, must not
    /// distort the cache statistics or keep an otherwise-idle entry alive.
    pub fn peek<T: Scalar>(&self, id: u64, version: u64) -> Option<Arc<CsrMatrix<T>>> {
        if !self.inner.enabled {
            return None;
        }
        let ty = TypeId::of::<T>();
        let value = lock(&self.inner.entries)
            .iter()
            .find(|e| e.id == id && e.version == version && e.ty == ty && !e.unreachable())?
            .transpose()?;
        Some(
            value
                .downcast::<CsrMatrix<T>>()
                .expect("entry type matches its TypeId key"),
        )
    }

    /// Drop every resident entry, pinned ones included (counters are
    /// preserved).
    pub fn clear(&self) {
        lock(&self.inner.entries).clear();
    }

    /// Snapshot the cache counters.
    pub fn stats(&self) -> TransposeCacheStats {
        let c = &self.inner.counters;
        let (entries, pinned) = {
            let entries = lock(&self.inner.entries);
            (
                entries.len(),
                entries.iter().filter(|e| e.pin.is_some()).count(),
            )
        };
        TransposeCacheStats {
            enabled: self.inner.enabled,
            capacity: self.inner.capacity,
            entries,
            pinned,
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            invalidations: c.invalidations.load(Ordering::Relaxed),
            seeds: c.seeds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_sparse::CooMatrix;

    fn csr(n: usize, entries: &[(usize, usize, i64)]) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = TransposeCache::with_capacity(4);
        let built = cache.get_or_build(1, 1, || csr(3, &[(0, 1, 5)]).transpose());
        let again = cache.get_or_build::<i64>(1, 1, || panic!("must not rebuild on hit"));
        assert!(Arc::ptr_eq(&built, &again));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_poisoned_store_still_serves_hits_and_misses() {
        let cache = TransposeCache::with_capacity(4);
        let built = cache.get_or_build(1, 1, || csr(3, &[(0, 1, 5)]).transpose());
        let shared = cache.clone();
        let worker = std::thread::spawn(move || {
            let _held = lock(&shared.inner.entries);
            panic!("a worker engine dies holding the store");
        });
        assert!(worker.join().is_err());
        assert!(cache.inner.entries.is_poisoned());

        let hit = cache.get_or_build::<i64>(1, 1, || panic!("must not rebuild on hit"));
        assert!(Arc::ptr_eq(&built, &hit));
        let miss = cache.get_or_build(2, 1, || csr(2, &[(1, 0, 9)]));
        assert_eq!(miss.get(1, 0), Some(9));
        assert!(cache.contains::<i64>(2, 1));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn new_version_invalidates_old_generation() {
        let cache = TransposeCache::with_capacity(4);
        let v1 = cache.get_or_build(7, 1, || csr(2, &[(0, 1, 1)]));
        let v2 = cache.get_or_build(7, 2, || csr(2, &[(1, 0, 9)]));
        assert!(!Arc::ptr_eq(&v1, &v2));
        let s = cache.stats();
        assert_eq!(s.entries, 1, "stale generation must be dropped");
        assert_eq!(s.invalidations, 1);
        // the old version is gone: looking it up again rebuilds
        let rebuilt = cache.get_or_build(7, 1, || csr(2, &[(0, 1, 1)]));
        assert!(!Arc::ptr_eq(&v1, &rebuilt));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = TransposeCache::with_capacity(2);
        cache.get_or_build(1, 1, || csr(2, &[]));
        cache.get_or_build(2, 1, || csr(2, &[]));
        // touch id=1 so id=2 is the LRU
        cache.get_or_build::<i64>(1, 1, || panic!("hit expected"));
        cache.get_or_build(3, 1, || csr(2, &[]));
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // id=2 was evicted; id=1 survived
        cache.get_or_build::<i64>(1, 1, || panic!("id=1 must still be resident"));
        assert_eq!(cache.stats().hits, 2);
        let mut rebuilt = false;
        cache.get_or_build(2, 1, || {
            rebuilt = true;
            csr(2, &[])
        });
        assert!(rebuilt, "id=2 must have been evicted");
    }

    #[test]
    fn distinct_element_types_do_not_collide() {
        let cache = TransposeCache::with_capacity(4);
        cache.get_or_build(1, 1, || csr(2, &[(0, 0, 3)]));
        // same (id, version) but f64: must build, not downcast the i64 entry
        let f = cache.get_or_build(1, 1, || {
            let mut coo = CooMatrix::new(2, 2);
            coo.push(0, 0, 1.5f64);
            CsrMatrix::from_coo(coo, |a, _| a)
        });
        assert_eq!(f.get(0, 0), Some(1.5));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn disabled_cache_always_builds() {
        let cache = TransposeCache::disabled();
        assert!(!cache.enabled());
        let a = cache.get_or_build(1, 1, || csr(2, &[(0, 1, 1)]));
        let b = cache.get_or_build(1, 1, || csr(2, &[(0, 1, 1)]));
        assert!(!Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 0));
    }

    #[test]
    fn contains_is_a_pure_peek() {
        let cache = TransposeCache::with_capacity(2);
        cache.get_or_build(1, 1, || csr(2, &[]));
        cache.get_or_build(2, 1, || csr(2, &[]));
        // peeking id=1 must NOT refresh its LRU position or count a hit
        assert!(cache.contains::<i64>(1, 1));
        assert!(!cache.contains::<i64>(1, 2), "wrong version");
        assert!(!cache.contains::<f64>(1, 1), "wrong element type");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        // id=1 is still the LRU entry, so the next insert evicts it
        cache.get_or_build(3, 1, || csr(2, &[]));
        assert!(!cache.contains::<i64>(1, 1), "peek must not keep LRU alive");
        assert!(cache.contains::<i64>(2, 1));
    }

    #[test]
    fn seed_counts_as_seed_not_hit_or_miss() {
        let cache = TransposeCache::with_capacity(4);
        let symmetric = Arc::new(csr(2, &[(0, 1, 1), (1, 0, 1)]));
        cache.seed(9, 1, &symmetric);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.seeds, s.entries), (0, 0, 1, 1));
        assert!(cache.contains::<i64>(9, 1));
        // disabled cache ignores seeds entirely
        let off = TransposeCache::disabled();
        off.seed(9, 1, &symmetric);
        assert_eq!(off.stats().seeds, 0);
        assert!(!off.contains::<i64>(9, 1));
    }

    #[test]
    fn pinned_entries_outlive_computed_ones_and_die_with_their_matrix() {
        let cache = TransposeCache::with_capacity(2);
        let symmetric = Arc::new(csr(2, &[(0, 1, 1), (1, 0, 1)]));
        cache.seed(1, 1, &symmetric);
        let built_from = Arc::new(csr(2, &[(0, 1, 1)]));
        let no_share = || unreachable!("not its own transpose");
        cache.get_or_share(2, 1, &built_from, true, no_share, || built_from.transpose());
        for id in 10..20 {
            cache.get_or_build(id, 1, || csr(2, &[]));
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.pinned, s.evictions), (4, 2, 8));
        assert!(cache.contains::<i64>(1, 1) && cache.contains::<i64>(2, 1));
        // a hit through the pinning lookup pins a computed entry in place
        let late = Arc::new(csr(2, &[]));
        cache.get_or_share::<i64>(19, 1, &late, true, no_share, || panic!("resident"));
        assert_eq!(cache.stats().pinned, 3);
        // the matrices go away (a reload dropped the graph): the next
        // insert sweeps their entries, nobody had to say so
        drop((symmetric, built_from));
        cache.get_or_build(20, 1, || csr(2, &[]));
        let s = cache.stats();
        assert_eq!((s.pinned, s.invalidations), (1, 2));
        assert!(!cache.contains::<i64>(1, 1) && !cache.contains::<i64>(2, 1));
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn a_seeded_buffer_is_never_kept_alive_by_the_caches_it_is_in() {
        // one graph seeded into two stores (two contexts) and under two ids
        let (one, other) = (
            TransposeCache::with_capacity(2),
            TransposeCache::with_capacity(2),
        );
        let symmetric = Arc::new(csr(2, &[(0, 1, 1), (1, 0, 1)]));
        one.seed(1, 1, &symmetric);
        one.seed(2, 1, &symmetric);
        other.seed(1, 1, &symmetric);
        let served = one.get_or_build::<i64>(1, 1, || panic!("seeded"));
        assert!(Arc::ptr_eq(&served, &symmetric));
        drop(served);
        let buffer = Arc::downgrade(&symmetric);
        drop(symmetric);
        assert_eq!(buffer.strong_count(), 0, "freed with its last handle");
        assert!(!one.contains::<i64>(1, 1) && !one.contains::<i64>(2, 1));
        assert!(!other.contains::<i64>(1, 1));
        // the dead entries go at the next insert; a lookup that finds one
        // first rebuilds
        let mut rebuilt = false;
        other.get_or_build(1, 1, || {
            rebuilt = true;
            csr(2, &[])
        });
        assert!(rebuilt);
        one.get_or_build(3, 1, || csr(2, &[]));
        assert_eq!((one.stats().entries, one.stats().pinned), (1, 0));
    }

    #[test]
    fn get_or_share_holds_an_own_transpose_by_weak_and_builds_the_rest() {
        let cache = TransposeCache::with_capacity(1);
        let symmetric = Arc::new(csr(2, &[(0, 1, 1), (1, 0, 1)]));
        let mut charged = 0;
        let t = cache.get_or_share(1, 1, &symmetric, false, || charged += 1, || unreachable!());
        assert!(Arc::ptr_eq(&t, &symmetric) && charged == 1);
        drop(t);
        assert_eq!(Arc::strong_count(&symmetric), 1, "held by a Weak alone");
        let directed = Arc::new(csr(2, &[(0, 1, 1)]));
        let t = cache.get_or_share(
            2,
            1,
            &directed,
            false,
            || unreachable!(),
            || directed.transpose(),
        );
        assert_eq!(t.get(1, 0), Some(1));
        // the shared entry costs nothing and is pinned; the built one is the LRU
        let s = cache.stats();
        assert_eq!(
            (s.misses, s.hits, s.seeds, s.entries, s.pinned),
            (2, 0, 0, 2, 1)
        );
        let again = cache.get_or_share(
            1,
            1,
            &symmetric,
            false,
            || unreachable!(),
            || unreachable!(),
        );
        assert!(Arc::ptr_eq(&again, &symmetric));
        assert_eq!(cache.stats().hits, 1);
        // a disabled cache is the reference: it builds
        let off = TransposeCache::disabled();
        let built = off.get_or_share(
            1,
            1,
            &symmetric,
            true,
            || unreachable!(),
            || symmetric.transpose(),
        );
        assert!(!Arc::ptr_eq(&built, &symmetric));
    }

    #[test]
    fn clone_shares_the_store() {
        let cache = TransposeCache::with_capacity(4);
        let handle = cache.clone();
        cache.get_or_build(1, 1, || csr(2, &[]));
        handle.get_or_build::<i64>(1, 1, || panic!("clone must see the entry"));
        assert_eq!(cache.stats().hits, 1);
    }
}
