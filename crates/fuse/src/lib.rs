#![warn(missing_docs)]

//! gbtl-fuse: the query-fusion batching window.
//!
//! Concurrent traversals over the same graph are the classic GraphBLAS
//! batching opportunity — k frontier vectors stacked into one frontier
//! matrix turn k sparse products per level into one. This crate supplies
//! the *queueing* half of that trade: a [`FuseQueue`] holds compatible
//! requests for a short window (`GBTL_FUSE_WINDOW_US`) or until a group
//! reaches `GBTL_FUSE_MAX_BATCH`, whichever comes first, then releases the
//! whole group at once so the execution layer can run it as a single
//! multi-source kernel.
//!
//! The crate is deliberately generic and dependency-light: members are an
//! opaque `T` grouped by a caller-supplied **compatibility key** string
//! (gbtl-serve uses `graph@epoch|algo|backend`), and nothing here knows
//! about graphs, kernels, or wire protocols. That keeps the window policy
//! unit-testable in isolation and lets fusion compose unchanged behind the
//! shard router — every shard's pool simply owns its own `FuseQueue`.
//!
//! Lifecycle contract (mirrors the pool's job queue): once
//! [`FuseQueue::close_and_drain`] runs, later pushes bounce back to the
//! caller via [`PushOutcome::Closed`] so no member is ever silently
//! stranded — exactly the "never strand a `Reply`" rule of the
//! `gbtl_net::Engine` contract, one layer down.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use gbtl_util::sync::lock;

/// Fusion knobs, sourced from `GBTL_FUSE*` environment variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuseConfig {
    /// Master switch (`GBTL_FUSE`, default off). Off means requests flow
    /// straight to the job queue exactly as before this subsystem existed.
    pub enabled: bool,
    /// How long the first member of a group waits for company
    /// (`GBTL_FUSE_WINDOW_US`, default 1000 µs).
    pub window: Duration,
    /// Group size that triggers an immediate flush without waiting out the
    /// window (`GBTL_FUSE_MAX_BATCH`, default 64, min 1).
    pub max_batch: usize,
}

impl Default for FuseConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            window: Duration::from_micros(1000),
            max_batch: 64,
        }
    }
}

impl FuseConfig {
    /// Build from the environment with the workspace-wide warn-and-fall-back
    /// contract (see `gbtl_util::env`).
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            enabled: gbtl_util::env::bool_var("GBTL_FUSE").unwrap_or(d.enabled),
            window: gbtl_util::env::u64_var("GBTL_FUSE_WINDOW_US", 1)
                .map(Duration::from_micros)
                .unwrap_or(d.window),
            max_batch: gbtl_util::env::usize_var("GBTL_FUSE_MAX_BATCH", 1).unwrap_or(d.max_batch),
        }
    }
}

/// What happened to a pushed member.
#[derive(Debug)]
pub enum PushOutcome<T> {
    /// Joined (or started) a group that is still inside its window; a
    /// flusher waiting in [`FuseQueue::pop_due`] will release it later.
    Held,
    /// The push completed a group at `max_batch`: the entire group —
    /// including the just-pushed member — is handed back for immediate
    /// execution, skipping the rest of the window.
    Flush(Vec<T>),
    /// The queue is closed (draining); the member is returned so the
    /// caller can route it through the non-fused path instead.
    Closed(T),
}

struct Group<T> {
    items: Vec<T>,
    flush_at: Instant,
}

/// The queue's state. Every critical section over it is a map lookup, an
/// insert, a remove or a drain plus one flag; the one step that can panic,
/// an overflowing deadline, runs before its entry is inserted. So the state
/// is whole even behind a poisoned lock, and every lock and wait below
/// tolerates the poison.
struct Inner<T> {
    groups: HashMap<String, Group<T>>,
    closed: bool,
}

/// A batching window: members pushed under the same compatibility key are
/// held together until the key's window expires or the group fills.
///
/// One flusher thread blocks in [`pop_due`](Self::pop_due); any number of
/// submitter threads call [`push`](Self::push) concurrently.
pub struct FuseQueue<T> {
    inner: Mutex<Inner<T>>,
    wake: Condvar,
    window: Duration,
    max_batch: usize,
}

impl<T> std::fmt::Debug for FuseQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuseQueue")
            .field("window", &self.window)
            .field("max_batch", &self.max_batch)
            .field("pending", &self.pending())
            .finish()
    }
}

impl<T> FuseQueue<T> {
    /// New queue with the given window length and flush-now group size.
    pub fn new(window: Duration, max_batch: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                groups: HashMap::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            window: window.max(Duration::from_micros(1)),
            max_batch: max_batch.max(1),
        }
    }

    /// Convenience: a queue sized from a [`FuseConfig`].
    pub fn from_config(cfg: &FuseConfig) -> Self {
        Self::new(cfg.window, cfg.max_batch)
    }

    /// Add `item` under `key`. The first member of a key stamps the group's
    /// flush deadline at `now + window`; later members ride that same
    /// deadline (the window does **not** restart), so no request waits more
    /// than one window regardless of arrival order.
    pub fn push(&self, key: &str, item: T) -> PushOutcome<T> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return PushOutcome::Closed(item);
        }
        let group = inner
            .groups
            .entry(key.to_string())
            .or_insert_with(|| Group {
                items: Vec::new(),
                flush_at: Instant::now() + self.window,
            });
        group.items.push(item);
        if group.items.len() >= self.max_batch {
            let full = inner.groups.remove(key).expect("group just touched");
            return PushOutcome::Flush(full.items);
        }
        drop(inner);
        // wake the flusher so it re-arms its timer against the (possibly
        // new) earliest deadline
        self.wake.notify_all();
        PushOutcome::Held
    }

    /// Block until some group's window expires, then return it (key plus
    /// members, arrival order preserved). Returns `None` only after
    /// [`close_and_drain`](Self::close_and_drain): the flusher thread's
    /// exit signal.
    pub fn pop_due(&self) -> Option<(String, Vec<T>)> {
        let mut inner = lock(&self.inner);
        loop {
            if inner.closed {
                return None;
            }
            let now = Instant::now();
            let earliest = inner
                .groups
                .iter()
                .min_by_key(|(_, g)| g.flush_at)
                .map(|(k, g)| (k.clone(), g.flush_at));
            match earliest {
                Some((key, at)) if at <= now => {
                    let group = inner.groups.remove(&key).expect("group present");
                    return Some((key, group.items));
                }
                Some((_, at)) => {
                    let (guard, _) = self
                        .wake
                        .wait_timeout(inner, at - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    inner = guard;
                }
                None => {
                    inner = self
                        .wake
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Close the queue and hand back everything still in flight. Subsequent
    /// pushes return [`PushOutcome::Closed`]; a blocked [`pop_due`]
    /// (Self::pop_due) wakes and returns `None`. Idempotent — a second call
    /// returns an empty drain.
    pub fn close_and_drain(&self) -> Vec<(String, Vec<T>)> {
        let mut inner = lock(&self.inner);
        inner.closed = true;
        let drained = inner.groups.drain().map(|(k, g)| (k, g.items)).collect();
        drop(inner);
        self.wake.notify_all();
        drained
    }

    /// Members currently held across all open groups (gauge fodder).
    pub fn pending(&self) -> usize {
        let inner = lock(&self.inner);
        inner.groups.values().map(|g| g.items.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn quick() -> FuseQueue<u32> {
        FuseQueue::new(Duration::from_millis(5), 3)
    }

    #[test]
    fn window_expiry_releases_the_group() {
        let q = quick();
        assert!(matches!(q.push("k", 1), PushOutcome::Held));
        assert!(matches!(q.push("k", 2), PushOutcome::Held));
        assert_eq!(q.pending(), 2);
        let (key, items) = q.pop_due().expect("group due");
        assert_eq!(key, "k");
        assert_eq!(items, vec![1, 2]);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn max_batch_flushes_immediately() {
        let q = quick();
        assert!(matches!(q.push("k", 1), PushOutcome::Held));
        assert!(matches!(q.push("k", 2), PushOutcome::Held));
        match q.push("k", 3) {
            PushOutcome::Flush(items) => assert_eq!(items, vec![1, 2, 3]),
            other => panic!("expected Flush, got {other:?}"),
        }
        // the key starts fresh afterwards
        assert!(matches!(q.push("k", 4), PushOutcome::Held));
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn keys_batch_independently() {
        let q = quick();
        q.push("a", 1);
        q.push("b", 10);
        q.push("a", 2);
        let mut got: Vec<(String, Vec<u32>)> = vec![q.pop_due().unwrap(), q.pop_due().unwrap()];
        got.sort();
        assert_eq!(got, vec![("a".into(), vec![1, 2]), ("b".into(), vec![10])]);
    }

    #[test]
    fn close_drains_and_bounces() {
        let q = quick();
        q.push("k", 1);
        q.push("j", 2);
        let mut drained = q.close_and_drain();
        drained.sort();
        assert_eq!(drained, vec![("j".into(), vec![2]), ("k".into(), vec![1])]);
        assert!(matches!(q.push("k", 3), PushOutcome::Closed(3)));
        assert!(q.pop_due().is_none());
        assert!(q.close_and_drain().is_empty());
    }

    #[test]
    fn close_wakes_a_blocked_flusher() {
        let q = Arc::new(FuseQueue::<u32>::new(Duration::from_secs(60), 8));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_due());
        std::thread::sleep(Duration::from_millis(20));
        q.close_and_drain();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn flusher_thread_sees_window_flush() {
        let q = Arc::new(FuseQueue::<u32>::new(Duration::from_millis(10), 100));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_due());
        q.push("k", 7);
        let (key, items) = h.join().unwrap().expect("flush");
        assert_eq!((key.as_str(), items), ("k", vec![7]));
        q.close_and_drain();
    }

    #[test]
    fn a_poisoned_queue_keeps_batching_and_draining() {
        let q = Arc::new(quick());
        q.push("k", 1);
        let held = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = held.inner.lock().unwrap();
            panic!("poison the queue");
        })
        .join();
        assert!(q.inner.is_poisoned());
        assert_eq!(q.pending(), 1);
        assert!(matches!(q.push("k", 2), PushOutcome::Held));
        assert_eq!(q.pop_due(), Some(("k".into(), vec![1, 2])));
        assert!(matches!(q.push("j", 3), PushOutcome::Held));
        assert_eq!(q.close_and_drain(), vec![("j".into(), vec![3])]);
        assert!(matches!(q.push("j", 4), PushOutcome::Closed(4)));
        assert!(q.pop_due().is_none());
    }

    #[test]
    fn config_defaults_are_off_1ms_64() {
        let d = FuseConfig::default();
        assert!(!d.enabled);
        assert_eq!(d.window, Duration::from_micros(1000));
        assert_eq!(d.max_batch, 64);
    }
}
