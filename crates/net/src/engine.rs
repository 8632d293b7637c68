//! The **Engine contract**: the formal boundary between a connection
//! front-end (this crate's event loop, or gbtl-serve's blocking
//! thread-per-connection listener) and the compute back-end that answers
//! requests.
//!
//! # What crosses the boundary
//!
//! * **Down** (front-end → engine): one complete, newline-stripped,
//!   non-blank request line per [`Engine::submit`] call, plus a [`Reply`]
//!   the engine may keep for asynchronous completion, plus the request's
//!   **x-ray context** — `Some` iff the front-end sampled this request for
//!   causal tracing ([`gbtl_trace::begin_request`]). The context's
//!   `parent_span` is the front-end's root `net.connection` span; every
//!   span the engine (or anything below it) records for this request must
//!   descend from it. Engines must treat the context as pass-through
//!   metadata: it never changes what a request computes or answers, only
//!   what gets recorded. Lines are UTF-8 (invalid bytes arrive lossily
//!   replaced — the engine answers them as a parse error like any other
//!   malformed request).
//! * **Up** (engine → front-end): exactly **one** response per submitted
//!   line — either inline, as [`Submission::Inline`], or later, by invoking
//!   the [`Reply`] (the [`Submission::Accepted`] case). A response is one
//!   line of JSON with **no trailing newline**; framing is the front-end's
//!   job. An engine must never answer both ways, never invoke a [`Reply`]
//!   twice (the type makes that unrepresentable), and never drop an
//!   accepted request silently — a `Reply` dropped un-sent is a contract
//!   breach (the threaded listener closes that connection; the event
//!   loop's slot never fills).
//!
//! # What never crosses
//!
//! * Sockets, fds, buffers, or any connection identity: the engine cannot
//!   tell which connection a request came from, so it cannot special-case
//!   one — the property that makes responses bit-identical across
//!   front-ends testable.
//! * Threads: the engine must not assume which thread calls `submit`
//!   (listener thread, poller thread, or a connection thread) nor block it
//!   beyond admission control — `submit` is on the event loop's critical
//!   path, so anything slower than a bounded queue push belongs behind the
//!   `Accepted` path.
//! * Ordering: engines may complete accepted requests in any order.
//!   **Per-connection response order is the front-end's obligation** (the
//!   event loop holds completed responses until every earlier response on
//!   that connection has been emitted).
//!
//! # Deadlines and drain semantics
//!
//! A deadline is the engine's business, never the front-end's: every
//! front-end waits on an accepted request's [`Reply`] for as long as it
//! takes. A request that expires while still queued is answered by the
//! engine itself with an error; work already executing when its deadline
//! passes completes, and its late response is delivered like any other.
//!
//! [`Engine::drain`] begins shutdown: new compute submissions are rejected
//! inline from then on, but every previously accepted request still gets
//! its real response. Front-ends stop accepting connections once
//! [`Engine::is_draining`] turns true, flush what remains, and only then
//! tear down. `drain` must be idempotent.
//!
//! A **composite engine** (one that multiplexes several inner engines,
//! like gbtl-shard's scatter-gather router) must fan `drain` out to every
//! inner engine before returning, and report `is_draining` from its own
//! flag — not by polling members — so a front-end observes one coherent
//! drain transition even while individual shards finish at different
//! times. Requests the composite had already scattered keep their
//! per-member replies; the composite merges whatever arrives and labels
//! the rest as partial, upholding the "never strand a Reply" rule
//! transitively.
//!
//! # Diagnostics obligations
//!
//! Per-mode, so a `stats` endpoint never lies about the front-end in use:
//!
//! * Every front-end reports connection lifecycle through
//!   [`Engine::connection_opened`] / [`Engine::connection_closed`] — the
//!   engine owns the cross-mode connection counters.
//! * The engine renders protocol-level rejections the front-end needs
//!   ([`Engine::oversized_line_response`]) so wire bytes for the same fault
//!   are identical in every mode, and counts them.
//! * Transport-level diagnostics that only exist in one mode (backpressure
//!   events, poll timeouts, pipelined depth) stay on the front-end side —
//!   see [`crate::NetStats`] — and are surfaced by whoever owns the metrics
//!   registry.

/// A single-use completion channel for one accepted request. Invoking
/// [`Reply::send`] consumes it, so an engine cannot answer twice.
pub struct Reply {
    inner: Box<dyn FnOnce(String) + Send>,
}

impl Reply {
    /// Wrap the front-end's delivery function.
    pub fn new(deliver: impl FnOnce(String) + Send + 'static) -> Reply {
        Reply {
            inner: Box::new(deliver),
        }
    }

    /// Deliver the response line (no trailing newline). May be called from
    /// any thread.
    pub fn send(self, response: String) {
        (self.inner)(response)
    }
}

impl std::fmt::Debug for Reply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reply")
    }
}

/// What [`Engine::submit`] did with a request line.
#[derive(Debug)]
pub enum Submission {
    /// Answered synchronously; the [`Reply`] was dropped unused. Control
    /// ops, cache hits, and every rejection (parse errors, admission
    /// control, drain) take this path.
    Inline(String),
    /// Queued for asynchronous execution; the [`Reply`] will be invoked
    /// exactly once, however late (see the module docs on deadlines).
    Accepted,
}

/// The compute back-end behind a connection front-end. See the module docs
/// for the full contract; the trait itself is deliberately small.
pub trait Engine: Send + Sync + 'static {
    /// Handle one complete request line (newline-stripped, non-blank).
    /// `xray` is the request's sampled trace context (`None` for the
    /// common unsampled case); see the module docs for its pass-through
    /// contract.
    fn submit(
        &self,
        line: &str,
        reply: Reply,
        xray: Option<gbtl_trace::TraceContext>,
    ) -> Submission;

    /// A connection was accepted (any front-end).
    fn connection_opened(&self) {}

    /// A connection was closed or reaped (any front-end).
    fn connection_closed(&self) {}

    /// Render the response for a request line that exceeded `max_line`
    /// bytes before a newline arrived. The engine also counts the fault.
    fn oversized_line_response(&self, max_line: usize) -> String;

    /// Begin shutdown: reject new compute work, finish accepted work.
    /// Idempotent.
    fn drain(&self);

    /// True once [`Engine::drain`] has been called (by anyone).
    fn is_draining(&self) -> bool;
}
