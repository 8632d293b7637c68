//! A small chunked work-sharing executor on persistent parked helpers.
//!
//! Tasks are integer-indexed (`0..ntasks`); the pool deals contiguous blocks
//! of indices, one per worker, workers pop their own block from the front
//! and steal from other blocks' backs when empty. Results land in per-task
//! slots, so the returned `Vec<R>` is always in task order no matter which
//! worker ran what — scheduling can never change an op's output.
//!
//! A pool of `threads` workers is `threads − 1` **helper threads plus the
//! dispatching caller as worker 0**. The helpers are spawned on the first
//! dispatch that fans out (a pool that only ever runs inline owns no
//! thread), live until the last clone of the pool drops — which joins them
//! — and between dispatches are parked on a `Condvar`; they never spin,
//! because the pool is routinely run with more workers than CPUs. A
//! fanned-out [`ThreadPool::run_tasks`] publishes its job, wakes the
//! helpers, works its own block and then steals like any other worker, so
//! a dispatch whose helpers never get a time slice still completes, at
//! sequential cost. It returns only once every task has settled and every
//! helper that joined the job has left it, which is what lets tasks borrow
//! from the caller's stack (see `fan_out`). Waking a parked helper costs a
//! few microseconds a dispatch (EXPERIMENTS.md R-P20), not the thread
//! spawn and join it replaced, and a helper's stack, allocator arena and
//! thread-local kernel workspaces (`gbtl_util::workspace`) stay warm from
//! one dispatch to the next. A dispatch of one task still runs inline on
//! the caller.
//!
//! One job is in flight per pool. A dispatch that finds another one
//! published — a second thread sharing the pool through a clone, or a task
//! that dispatches on its own pool — runs all of its tasks on its caller
//! rather than wait. A task that panics is caught where it ran; the other
//! tasks still run, the job is retired normally, and the first panic is
//! re-raised on the dispatching thread. The pool serves the next dispatch
//! as if nothing had happened.
//!
//! The pool keeps cumulative execution counters — dispatches, tasks run,
//! steals, per-worker busy time — shared across clones (a clone is another
//! handle on the same helpers and the same ledger). Snapshot with
//! [`ThreadPool::stats`]; `gbtl-core` bridges the snapshot into unified
//! `gbtl-trace` reports.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use gbtl_util::sync::lock;

/// Snapshot of a pool's cumulative execution counters (see
/// [`ThreadPool::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured worker count (the length of `busy_ns`).
    pub threads: usize,
    /// `run_tasks` calls that dealt their tasks to more than one worker.
    pub parallel_dispatches: u64,
    /// `run_tasks` calls that ran inline on the caller (one worker or one
    /// task — the sequential-equivalence fast path).
    pub inline_dispatches: u64,
    /// Tasks executed across all dispatches (inline ones included).
    pub tasks_executed: u64,
    /// Tasks obtained by stealing from another worker's block.
    pub steals: u64,
    /// Per-worker nanoseconds spent inside task closures. Worker 0 is the
    /// dispatching caller, inline dispatches included.
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

/// One dispatch's share of work for worker `w`: run tasks until none is
/// left. Never unwinds (task panics are caught inside it).
type Work<'a> = dyn Fn(usize) + Sync + 'a;

/// What the dispatching caller and the parked helpers share.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Helpers park here for the next job (or shutdown).
    wake: Condvar,
    /// The caller waits here for the last helper to leave a retired job.
    left: Condvar,
}

#[derive(Default)]
struct State {
    /// The job in flight, its borrow of the caller's stack erased (see
    /// `ThreadPool::fan_out`). `Some` only while that caller is inside
    /// `fan_out`.
    job: Option<&'static Work<'static>>,
    /// Blocks dealt in the job in flight; helper `w >= workers` sits it out.
    workers: usize,
    /// Bumped per published job, so a helper joins each job at most once.
    epoch: u64,
    /// Helpers inside the job in flight, or still inside the one just
    /// retired; no job is published until they have left.
    inside: usize,
    shutdown: bool,
    /// `None` until the first fanned-out dispatch spawns them. Spawned
    /// once: a failed spawn leaves fewer helpers and is not retried.
    helpers: Option<Vec<JoinHandle<()>>>,
}

fn helper_loop(shared: &Shared, w: usize) {
    let mut seen = 0;
    let mut st = lock(&shared.state);
    while !st.shutdown {
        match st.job {
            Some(work) if st.epoch != seen && w < st.workers => {
                seen = st.epoch;
                st.inside += 1;
                drop(st);
                work(w);
                st = lock(&shared.state);
                st.inside -= 1;
                if st.inside == 0 {
                    shared.left.notify_one();
                }
            }
            _ => st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// Retires the published job on drop: no helper can join it afterwards,
/// and the drop returns only when those that did have left.
struct Retire<'a>(&'a Shared);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        st.job = None;
        while st.inside > 0 {
            st = self.0.left.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// What every clone of a pool shares; dropped with the last of them.
struct Inner {
    threads: usize,
    counters: Counters,
    /// The helpers hold `shared` too, but not `Inner`: they must not keep
    /// alive the thing whose drop tells them to exit.
    shared: Arc<Shared>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        let handles = {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            st.helpers.take().unwrap_or_default()
        };
        self.shared.wake.notify_all();
        for h in handles {
            // a helper runs nothing that unwinds, and a destructor has
            // no one to report to
            let _ = h.join();
        }
    }
}

/// A handle on `threads` workers — the dispatching caller plus
/// `threads − 1` persistent parked helpers — and their shared execution
/// counters. Clones share both.
#[derive(Clone)]
pub struct ThreadPool {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.inner.threads)
            .finish_non_exhaustive()
    }
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

    /// Exactly `threads` workers (still ≥1). No thread is spawned here.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        ThreadPool {
            inner: Arc::new(Inner {
                threads,
                counters: Counters::new(threads),
                shared: Arc::default(),
            }),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Snapshot the cumulative execution counters.
    pub fn stats(&self) -> PoolStats {
        let c = &self.inner.counters;
        PoolStats {
            threads: self.inner.threads,
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

    /// Run `f(0), f(1), …, f(ntasks-1)` across the workers and return the
    /// results in task order. If a task panics, the others still run and
    /// the first panic resumes on the caller.
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
        let counters = &self.inner.counters;
        let workers = self.inner.threads.min(ntasks);
        if workers <= 1 {
            counters.inline_dispatches.fetch_add(1, Ordering::Relaxed);
            counters
                .tasks_executed
                .fetch_add(ntasks as u64, Ordering::Relaxed);
            let t0 = Instant::now();
            let out = (0..ntasks).map(f).collect();
            counters.busy_ns[0].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return out;
        }
        counters.parallel_dispatches.fetch_add(1, Ordering::Relaxed);

        // Deal contiguous index blocks: worker w starts with
        // [w*ntasks/workers, (w+1)*ntasks/workers). Owners pop the front,
        // thieves pop the back, so a steal grabs the work its victim would
        // reach last.
        let blocks: Vec<Mutex<Range<usize>>> = (0..workers)
            .map(|w| Mutex::new(w * ntasks / workers..(w + 1) * ntasks / workers))
            .collect();
        let slots: Vec<Mutex<Option<R>>> = (0..ntasks).map(|_| Mutex::new(None)).collect();
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

        let work = |w: usize| {
            let mut ran: u64 = 0;
            let mut stolen: u64 = 0;
            let mut busy: u64 = 0;
            loop {
                // Own block first (front = natural order)…
                let mut task = lock(&blocks[w]).next();
                // …then steal round-robin from the others (back).
                if task.is_none() {
                    for off in 1..workers {
                        task = lock(&blocks[(w + off) % workers]).next_back();
                        if task.is_some() {
                            stolen += 1;
                            break;
                        }
                    }
                }
                // Every block empty: no task can create new tasks, so this
                // worker is done.
                let Some(t) = task else { break };
                let t0 = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| f(t)));
                busy += t0.elapsed().as_nanos() as u64;
                ran += 1;
                match r {
                    Ok(r) => *lock(&slots[t]) = Some(r),
                    Err(payload) => {
                        lock(&first_panic).get_or_insert(payload);
                    }
                }
            }
            counters.tasks_executed.fetch_add(ran, Ordering::Relaxed);
            counters.steals.fetch_add(stolen, Ordering::Relaxed);
            counters.busy_ns[w].fetch_add(busy, Ordering::Relaxed);
        };
        self.fan_out(workers, &work);

        if let Some(payload) = first_panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every task index was dealt and no task panicked")
            })
            .collect()
    }

    /// Run `work(0)` on the caller and `work(w)` on each helper `w <
    /// workers` that wakes in time, returning once all of them are out of
    /// `work`.
    ///
    /// The helpers are `'static` threads and `work` borrows from the
    /// caller's stack, so the reference they call through has its lifetime
    /// erased. That is sound for the reason scoped threads are: nothing
    /// calls through it once this function has returned. The erased
    /// reference lives in `State::job` alone. It is put there under the
    /// state lock, and `Retire` — constructed in the same critical section,
    /// so dropped on every path out of this function, unwinding included —
    /// takes it out again. A helper copies it out only under that lock
    /// while it is still there, counting itself into `State::inside` in the
    /// same critical section, and calls through its copy only until it
    /// counts itself out; `Retire::drop` does not return while `inside >
    /// 0`. `State`'s fields are private to this module and written nowhere
    /// else.
    fn fan_out<'a>(&self, workers: usize, work: &'a Work<'a>) {
        let shared = &*self.inner.shared;
        // SAFETY: only the lifetime changes, and the referent is `Sync`. No
        // call through `job` starts after, or outlasts, this function (see
        // above), so none outlives `'a`.
        let job = unsafe { std::mem::transmute::<&'a Work<'a>, &'static Work<'static>>(work) };
        let _retire = {
            let mut st = lock(&shared.state);
            if st.job.is_some() || st.inside > 0 {
                // another dispatch holds the helpers, or is still waiting
                // for them to leave (so `left` has one waiter at a time):
                // worker 0 runs its own block and steals all the others
                drop(st);
                return work(0);
            }
            st.helpers.get_or_insert_with(|| {
                (1..self.inner.threads)
                    .map_while(|w| {
                        let shared = Arc::clone(&self.inner.shared);
                        std::thread::Builder::new()
                            .name(format!("gbtl-par-{w}"))
                            .spawn(move || helper_loop(&shared, w))
                            .ok()
                    })
                    .collect()
            });
            st.job = Some(job);
            st.workers = workers;
            st.epoch += 1;
            Retire(shared)
        };
        shared.wake.notify_all();
        work(0);
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
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// One dispatch that every worker of the pool must take part in — one
    /// task each, meeting at a barrier. Returns who ran them.
    fn all_hands(pool: &ThreadPool) -> HashSet<ThreadId> {
        let barrier = Barrier::new(pool.threads());
        pool.run_tasks(pool.threads(), |_| {
            barrier.wait();
            std::thread::current().id()
        })
        .into_iter()
        .collect()
    }

    fn spawned(pool: &ThreadPool) -> bool {
        lock(&pool.inner.shared.state).helpers.is_some()
    }

    #[test]
    fn a_pool_that_never_fans_out_spawns_no_thread() {
        let one = ThreadPool::with_threads(1);
        let _ = one.run_tasks(100, |i| i);
        assert!(!spawned(&one));
        let four = ThreadPool::with_threads(4);
        for _ in 0..10 {
            let _ = four.run_tasks(1, |i| i);
            let _ = four.run_tasks(0, |i| i);
        }
        assert!(!spawned(&four));
        let _ = four.run_tasks(2, |i| i);
        assert!(spawned(&four), "the first fanned-out dispatch spawns them");
    }

    #[test]
    fn a_thousand_dispatches_run_on_the_same_few_threads() {
        for threads in [2, 4] {
            let pool = ThreadPool::with_threads(threads);
            let crew = all_hands(&pool);
            assert_eq!(crew.len(), threads);
            assert!(crew.contains(&std::thread::current().id()));
            for _ in 0..1000 {
                for id in pool.run_tasks(8, |_| std::thread::current().id()) {
                    assert!(crew.contains(&id), "a thread outside the pool ran a task");
                }
            }
            assert_eq!(pool.stats().parallel_dispatches, 1001);
        }
    }

    #[test]
    fn dropping_the_last_clone_joins_the_helpers() {
        struct Gone(Arc<AtomicUsize>);
        impl Drop for Gone {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: RefCell<Option<Gone>> = const { RefCell::new(None) };
        }
        let exited = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::with_threads(4);
        let clone = pool.clone();
        // every helper plants a flag its thread's exit raises
        let caller = std::thread::current().id();
        let barrier = Barrier::new(4);
        let _ = pool.run_tasks(4, |_| {
            barrier.wait();
            if std::thread::current().id() != caller {
                ON_EXIT.with(|slot| *slot.borrow_mut() = Some(Gone(Arc::clone(&exited))));
            }
        });
        drop(pool);
        assert_eq!(clone.run_tasks(8, |i| i).len(), 8, "a clone keeps them");
        assert_eq!(exited.load(Ordering::SeqCst), 0);
        drop(clone);
        assert_eq!(exited.load(Ordering::SeqCst), 3, "joined, not detached");
    }

    #[test]
    fn clones_dispatching_at_once_both_get_their_results() {
        let pool = ThreadPool::with_threads(4);
        let start = Arc::new(Barrier::new(2));
        let threads: Vec<_> = [3usize, 7]
            .into_iter()
            .map(|k| {
                let (pool, start) = (pool.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..300 {
                        let out = pool.run_tasks(50, |i| i * k);
                        assert_eq!(out, (0..50).map(|i| i * k).collect::<Vec<_>>());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("a dispatching thread failed");
        }
        assert_eq!(pool.stats().tasks_executed, 2 * 300 * 50);
    }

    #[test]
    fn a_task_may_dispatch_on_its_own_pool() {
        let pool = ThreadPool::with_threads(2);
        let out = pool.run_tasks(4, |i| pool.run_tasks(4, |j| i * 4 + j));
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_task_costs_one_dispatch_and_no_helper() {
        for threads in [2, 4] {
            let pool = ThreadPool::with_threads(threads);
            let crew = all_hands(&pool);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                pool.run_tasks(64, |i| {
                    if i == 13 {
                        panic!("task 13");
                    }
                    i
                })
            }))
            .expect_err("the panic must reach the dispatching thread");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 13"));
            let squares: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(pool.run_tasks(100, |i| i * i), squares);

            // now on the helpers, all of them at once
            let caller = std::thread::current().id();
            let barrier = Barrier::new(threads);
            catch_unwind(AssertUnwindSafe(|| {
                pool.run_tasks(threads, |_| {
                    barrier.wait();
                    assert_eq!(std::thread::current().id(), caller, "helper down");
                })
            }))
            .expect_err("the helpers' panics must reach the dispatching thread");
            assert_eq!(pool.run_tasks(100, |i| i * i), squares);
            assert_eq!(all_hands(&pool), crew, "the same helpers serve on");
        }
    }

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
        // Worker 0 is dealt tasks [0, 16) and blocks on task 0 until task
        // 15 has run. Task 15 is the back of worker 0's own block, so only
        // worker 1 stealing it can release task 0, however late worker 1's
        // thread wakes.
        let pool = ThreadPool::with_threads(2);
        let stolen = AtomicBool::new(false);
        let out = pool.run_tasks(32, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(40));
                let t0 = Instant::now();
                while !stolen.load(Ordering::Acquire) {
                    if t0.elapsed() > Duration::from_secs(10) {
                        panic!("task 15 was not stolen from worker 0's block within 10 s");
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            if i == 15 {
                stolen.store(true, Ordering::Release);
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
    fn clones_share_counters() {
        let pool = ThreadPool::with_threads(2);
        let clone = pool.clone();
        let _ = clone.run_tasks(8, |i| i);
        assert_eq!(pool.stats().tasks_executed, 8);
        assert_eq!(pool.stats(), clone.stats());
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
