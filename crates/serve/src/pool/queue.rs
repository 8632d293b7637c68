//! What waits between admission and a worker: the one struct that carries
//! a query, the job enum, and the bounded queue.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use gbtl_net::Reply;
use gbtl_util::sync::lock;

use crate::catalog::GraphEntry;
use crate::protocol::QueryParams;

/// One admitted query, from admission to reply — straight onto the job
/// queue or through the fusion window first, executed alone or as one
/// column of a multi-source kernel. It carries everything tracked per
/// request (id, cache key, deadline, admission time, trace context, reply),
/// so de-multiplexing a batch preserves per-request identity exactly.
#[derive(Debug)]
pub(super) struct Member {
    pub(super) params: QueryParams,
    pub(super) graph: Arc<GraphEntry>,
    /// Result-cache key; results are cached per member, so a repeat of any
    /// member is a cache hit regardless of how it was first computed.
    pub(super) key: String,
    pub(super) request_id: u64,
    pub(super) deadline: Instant,
    /// Admission time on the shared clock (`now_ns`): where the window (or,
    /// for a query that never fused, the queue) stage starts, so the
    /// stage's span lines up with the rest of the trace's timestamps.
    pub(super) enqueued_ns: u64,
    /// When the batching window released the group, same clock: the end of
    /// a batch member's window stage and the start of its queue stage.
    /// Unused (0) for a query that never entered the window.
    pub(super) released_ns: u64,
    /// Trace context when the request is sampled; the worker hangs
    /// window/queue/execute/serialize spans under it. Fusion is never
    /// bypassed for sampled requests — each sampled member gets its own
    /// spans, and a batch's shared kernel op spans attach to the first
    /// sampled member's tree.
    pub(super) xray: Option<gbtl_trace::TraceContext>,
    /// The front-end's reply, *already wrapped* with the completed counter
    /// (once, at admission) — every downstream path sends through it raw.
    pub(super) reply: Reply,
}

/// One queued compute job.
#[derive(Debug)]
pub(super) enum Job {
    /// Queries that execute together. One member is the ordinary case — a
    /// request that bypassed the window, or a window group nobody joined.
    /// More than one were released together by the batching window: they
    /// share one graph epoch, algorithm, backend and direction (the
    /// compatibility key guarantees it). Deadlines are enforced per member
    /// by the worker, so one stale member never poisons the rest.
    Queries(Vec<Member>),
    /// The `sleep` diagnostic: occupies a worker for `ms` milliseconds.
    Sleep {
        ms: u64,
        id: Option<u64>,
        deadline: Instant,
        /// See [`Member::enqueued_ns`].
        enqueued_ns: u64,
        xray: Option<gbtl_trace::TraceContext>,
        /// Wrapped like [`Member::reply`].
        reply: Reply,
    },
}

/// Why a request was refused admission.
#[derive(Debug, Clone, Copy)]
pub(super) enum PushError {
    Full,
    ShuttingDown,
}

/// The bounded job queue (Mutex + Condvar; `pop` blocks, `push` never does).
#[derive(Debug)]
pub(super) struct JobQueue {
    capacity: usize,
    inner: Mutex<QueueInner>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct QueueInner {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

impl JobQueue {
    pub(super) fn new(capacity: usize) -> Self {
        JobQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(QueueInner::default()),
            cond: Condvar::new(),
        }
    }

    /// Admit a job, or hand it back with the rejection reason — returning
    /// the job lets callers answer each request's reply instead of
    /// stranding them.
    // The Err variant carries the whole Job back by design; it travels one
    // stack frame on the rejection path only, so boxing would buy nothing.
    #[allow(clippy::result_large_err)]
    pub(super) fn push(&self, job: Job) -> Result<(), (PushError, Job)> {
        let mut inner = lock(&self.inner);
        if inner.shutdown {
            return Err((PushError::ShuttingDown, job));
        }
        if inner.jobs.len() >= self.capacity {
            return Err((PushError::Full, job));
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is shut down *and*
    /// drained (so admitted work always completes).
    pub(super) fn pop(&self) -> Option<Job> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.shutdown {
                return None;
            }
            inner = self
                .cond
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub(super) fn len(&self) -> usize {
        lock(&self.inner).jobs.len()
    }

    pub(super) fn shutdown(&self) {
        lock(&self.inner).shutdown = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn mk() -> Job {
        Job::Sleep {
            ms: 0,
            id: None,
            deadline: Instant::now() + Duration::from_secs(1),
            enqueued_ns: gbtl_util::time::now_ns(),
            xray: None,
            reply: Reply::new(|_| {}),
        }
    }

    #[test]
    fn queue_caps_and_drains_on_shutdown() {
        let q = JobQueue::new(2);
        q.push(mk()).unwrap();
        q.push(mk()).unwrap();
        assert!(matches!(q.push(mk()), Err((PushError::Full, _))));
        assert_eq!(q.len(), 2);
        q.shutdown();
        assert!(matches!(q.push(mk()), Err((PushError::ShuttingDown, _))));
        // admitted jobs still drain after shutdown
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_poisoned_queue_still_serves() {
        let q = Arc::new(JobQueue::new(2));
        let held = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = held.inner.lock().unwrap();
            panic!("poison the queue");
        })
        .join();
        assert!(q.inner.is_poisoned());
        q.push(mk()).unwrap();
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        q.push(mk()).unwrap();
        q.shutdown();
        assert!(matches!(q.push(mk()), Err((PushError::ShuttingDown, _))));
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }
}
