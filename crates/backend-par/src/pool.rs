//! A small chunked work-stealing executor on `std::thread::scope`.
//!
//! Tasks are integer-indexed (`0..ntasks`); the pool deals contiguous blocks
//! of indices onto per-worker deques, workers pop their own deque from the
//! front and steal from other deques' backs when empty. Results land in
//! per-task slots, so the returned `Vec<R>` is always in task order no
//! matter which worker ran what — scheduling can never change an op's
//! output.
//!
//! The pool object itself is a reusable configuration (worker count) —
//! **there are no persistent worker threads**: the OS threads are scoped to
//! each [`ThreadPool::run_tasks`] call, which keeps every borrow a plain
//! lifetime (no channels). The price is per dispatch: spawning and joining
//! the workers costs ≈ 40 µs at 2 workers (measured: torus96 SSSP, par
//! against seq per level, one CPU), and a spawned worker's thread-local
//! kernel workspaces (`gbtl_util::workspace`) start empty every time. That
//! amortises against kernels that touch millions of entries and not against
//! a traversal level of a few hundred edges, so callers size their task
//! count from the work and a dispatch of one task runs inline on the caller
//! (see `mxv::vxm_range_count`).
//!
//! The pool keeps cumulative execution counters — dispatches, tasks run,
//! steals, per-worker busy time — shared across clones (cloning a pool
//! clones the configuration but *shares* the counter block, so a backend
//! and the contexts holding it see one ledger). Snapshot with
//! [`ThreadPool::stats`]; `gbtl-core` bridges the snapshot into unified
//! `gbtl-trace` reports.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Snapshot of a pool's cumulative execution counters (see
/// [`ThreadPool::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured worker count (the length of `busy_ns`).
    pub threads: usize,
    /// `run_tasks` calls that fanned out to scoped worker threads.
    pub parallel_dispatches: u64,
    /// `run_tasks` calls that ran inline on the caller (one worker or one
    /// task — the sequential-equivalence fast path).
    pub inline_dispatches: u64,
    /// Tasks executed across all dispatches (inline ones included).
    pub tasks_executed: u64,
    /// Tasks obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Per-worker nanoseconds spent inside task closures. Inline
    /// dispatches are attributed to worker 0 (they run on the caller).
    pub busy_ns: Vec<u64>,
}

impl PoolStats {
    /// Total busy nanoseconds across all workers.
    pub fn busy_total_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

#[derive(Debug)]
struct Counters {
    parallel_dispatches: AtomicU64,
    inline_dispatches: AtomicU64,
    tasks_executed: AtomicU64,
    steals: AtomicU64,
    busy_ns: Vec<AtomicU64>,
}

impl Counters {
    fn new(threads: usize) -> Self {
        Counters {
            parallel_dispatches: AtomicU64::new(0),
            inline_dispatches: AtomicU64::new(0),
            tasks_executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Worker-count configuration plus shared execution counters, reusable
/// across operations.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
    counters: Arc<Counters>,
}

impl ThreadPool {
    /// Worker count from `GBTL_NUM_THREADS` if set (invalid values warn on
    /// stderr and fall back), else [`std::thread::available_parallelism`].
    pub fn new() -> Self {
        let threads = gbtl_util::env::usize_var("GBTL_NUM_THREADS", 1).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Self::with_threads(threads)
    }

    /// Exactly `threads` workers (still ≥1).
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        ThreadPool {
            threads,
            counters: Arc::new(Counters::new(threads)),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot the cumulative execution counters.
    pub fn stats(&self) -> PoolStats {
        let c = &self.counters;
        PoolStats {
            threads: self.threads,
            parallel_dispatches: c.parallel_dispatches.load(Ordering::Relaxed),
            inline_dispatches: c.inline_dispatches.load(Ordering::Relaxed),
            tasks_executed: c.tasks_executed.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            busy_ns: c
                .busy_ns
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Zero the cumulative execution counters.
    pub fn reset_stats(&self) {
        let c = &self.counters;
        c.parallel_dispatches.store(0, Ordering::Relaxed);
        c.inline_dispatches.store(0, Ordering::Relaxed);
        c.tasks_executed.store(0, Ordering::Relaxed);
        c.steals.store(0, Ordering::Relaxed);
        for b in &c.busy_ns {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Run `f(0), f(1), …, f(ntasks-1)` across the workers and return the
    /// results in task order.
    ///
    /// With one worker (or one task) everything runs inline on the caller's
    /// thread — the 1-thread pool is *exactly* the sequential execution.
    pub fn run_tasks<R, F>(&self, ntasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if ntasks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(ntasks);
        if workers <= 1 {
            self.counters
                .inline_dispatches
                .fetch_add(1, Ordering::Relaxed);
            self.counters
                .tasks_executed
                .fetch_add(ntasks as u64, Ordering::Relaxed);
            let t0 = Instant::now();
            let out = (0..ntasks).map(f).collect();
            self.counters.busy_ns[0].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return out;
        }
        self.counters
            .parallel_dispatches
            .fetch_add(1, Ordering::Relaxed);

        // Deal contiguous index blocks: worker w starts with
        // [w*ntasks/workers, (w+1)*ntasks/workers). Owners pop the front,
        // thieves pop the back, so a steal grabs the work its victim would
        // reach last.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = w * ntasks / workers;
                let hi = (w + 1) * ntasks / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();
        let slots: Vec<Mutex<Option<R>>> = (0..ntasks).map(|_| Mutex::new(None)).collect();

        {
            let deques = &deques;
            let slots = &slots;
            let f = &f;
            let counters = &self.counters;
            std::thread::scope(|scope| {
                for w in 0..workers {
                    scope.spawn(move || {
                        let mut ran: u64 = 0;
                        let mut stolen: u64 = 0;
                        let mut busy: u64 = 0;
                        loop {
                            // Own deque first (front = natural order)…
                            let mut task = deques[w].lock().unwrap().pop_front();
                            // …then steal round-robin from the others (back).
                            if task.is_none() {
                                for off in 1..workers {
                                    let victim = (w + off) % workers;
                                    task = deques[victim].lock().unwrap().pop_back();
                                    if task.is_some() {
                                        stolen += 1;
                                        break;
                                    }
                                }
                            }
                            match task {
                                Some(t) => {
                                    let t0 = Instant::now();
                                    let r = f(t);
                                    busy += t0.elapsed().as_nanos() as u64;
                                    ran += 1;
                                    let prev = slots[t].lock().unwrap().replace(r);
                                    debug_assert!(prev.is_none(), "task {t} executed twice");
                                }
                                // Every deque empty: no task can create new
                                // tasks, so this worker is done.
                                None => break,
                            }
                        }
                        counters.tasks_executed.fetch_add(ran, Ordering::Relaxed);
                        counters.steals.fetch_add(stolen, Ordering::Relaxed);
                        counters.busy_ns[w].fetch_add(busy, Ordering::Relaxed);
                    });
                }
            });
        }

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every task index was dealt")
            })
            .collect()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::with_threads(threads);
            let out = pool.run_tasks(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = ThreadPool::with_threads(4);
        let runs = AtomicUsize::new(0);
        let out = pool.run_tasks(257, |i| {
            runs.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(runs.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
        assert_eq!(pool.stats().tasks_executed, 257);
    }

    #[test]
    fn skewed_task_costs_still_complete() {
        // One huge task plus many tiny ones: the other workers must steal.
        let pool = ThreadPool::with_threads(4);
        let out = pool.run_tasks(64, |i| {
            if i == 0 {
                (0..200_000u64).sum::<u64>()
            } else {
                i as u64
            }
        });
        assert_eq!(out[0], 199_999 * 200_000 / 2);
        assert_eq!(out[63], 63);
    }

    #[test]
    fn unbalanced_workload_records_steals() {
        // Worker 0 is dealt tasks [0, 16) and blocks on task 0; worker 1
        // drains its own block [16, 32) in microseconds and must then steal
        // from the back of worker 0's deque to finish the dispatch.
        let pool = ThreadPool::with_threads(2);
        let out = pool.run_tasks(32, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            i
        });
        assert_eq!(out.len(), 32);
        let s = pool.stats();
        assert_eq!(s.threads, 2);
        assert_eq!(s.parallel_dispatches, 1);
        assert_eq!(s.tasks_executed, 32);
        assert!(s.steals > 0, "expected steals on the unbalanced workload");
        assert_eq!(s.busy_ns.len(), 2);
        assert!(
            s.busy_ns[0] >= 40_000_000,
            "worker 0 busy time must cover the sleeping task"
        );
    }

    #[test]
    fn inline_dispatch_counts_without_steals() {
        let pool = ThreadPool::with_threads(1);
        let _ = pool.run_tasks(10, |i| i);
        let s = pool.stats();
        assert_eq!(s.inline_dispatches, 1);
        assert_eq!(s.parallel_dispatches, 0);
        assert_eq!(s.tasks_executed, 10);
        assert_eq!(s.steals, 0);
    }

    #[test]
    fn stats_reset_and_clones_share_counters() {
        let pool = ThreadPool::with_threads(2);
        let clone = pool.clone();
        let _ = clone.run_tasks(8, |i| i);
        assert_eq!(pool.stats().tasks_executed, 8);
        pool.reset_stats();
        assert_eq!(
            clone.stats(),
            PoolStats {
                threads: 2,
                busy_ns: vec![0, 0],
                ..PoolStats::default()
            }
        );
    }

    #[test]
    fn zero_and_one_tasks() {
        let pool = ThreadPool::with_threads(4);
        assert!(pool.run_tasks(0, |i| i).is_empty());
        assert_eq!(pool.run_tasks(1, |i| i + 7), vec![7]);
        // the empty dispatch records nothing
        let s = pool.stats();
        assert_eq!(s.tasks_executed, 1);
        assert_eq!(s.inline_dispatches, 1);
    }

    #[test]
    fn threads_clamped_to_at_least_one() {
        assert_eq!(ThreadPool::with_threads(0).threads(), 1);
        assert!(ThreadPool::new().threads() >= 1);
    }
}
