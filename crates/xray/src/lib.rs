#![warn(missing_docs)]

//! gbtl-xray: end-to-end causal tracing across the serving stack.
//!
//! A single query can cross five layers — the connection front-end, the
//! shard router's forward or scatter-gather fan-out, the fusion window,
//! the engine pool's queue/execute/serialize stages, and the backend
//! kernels — and per-layer metrics alone cannot say where *one specific*
//! request spent its time. This crate supplies the missing join key: a
//! [`TraceContext`] (trace id + parent span id) minted at the front-end
//! when a request is sampled, handed down through the
//! `gbtl_net::Engine::submit` contract, and stamped onto every span each
//! layer records. Completed trees land in a bounded process-global
//! [`XrayStore`], retrievable by trace id and exportable as Chrome
//! trace-event JSON ([`chrome`]).
//!
//! ## Sampling
//!
//! Head sampling, decided once per request at the front-end by
//! [`begin_request`]:
//!
//! * `GBTL_XRAY` (default **on**) is the master switch; `off` makes
//!   [`begin_request`] a single atomic load and nothing downstream runs.
//! * `GBTL_XRAY_SAMPLE=N` traces one request in `N` (default `0`:
//!   probabilistic sampling off — only explicit requests are traced).
//! * A request whose line carries `"xray":true` is **always** traced
//!   (checked as a substring before parsing, so sampling costs no parse).
//!
//! Tail decisions can't retroactively trace an unsampled request, so the
//! closest honest approximation for "always keep the interesting ones" is
//! *pinning*: the serving layer pins traces referenced by slow-query-log
//! entries ([`XrayStore::pin`]), which protects them from store eviction.
//!
//! ## Span model
//!
//! A [`Span`] is `{trace_id, span_id, parent, name, start_ns, end_ns,
//! attrs}`. `parent == 0` marks the root (the front-end's `net.connection`
//! span). All timestamps come from the shared process clock
//! ([`gbtl_util::time::now_ns`]), so intervals nest comparably across
//! layers and threads. A trace completes when its root finishes
//! ([`finish_request`]); spans arriving after that are dropped (a late
//! reply past a synthesized deadline answer has no tree to join).

use std::sync::OnceLock;

pub mod chrome;
mod store;

pub use store::{Span, Trace, TraceSummary, XrayStore};

/// The propagated sampling decision: which trace a request belongs to and
/// which span is the parent of whatever the current layer records.
///
/// `Copy` on purpose — it crosses thread and closure boundaries freely
/// (both ids are process-global and never reused). A request that was
/// *not* sampled simply has no context (`Option<TraceContext>` is `None`
/// everywhere downstream), so the unsampled path stays branch-cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this request belongs to (never 0).
    pub trace_id: u64,
    /// The span id new child spans should name as their parent.
    pub parent_span: u64,
}

impl TraceContext {
    /// A context for children of `span_id` within the same trace.
    #[inline]
    pub fn child_of(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: span_id,
        }
    }
}

static STORE: OnceLock<XrayStore> = OnceLock::new();

/// The process-global span store, configured from `GBTL_XRAY` and
/// `GBTL_XRAY_SAMPLE` on first use. One store
/// per process by design: a sharded deployment's router and member pools
/// all feed the same trees, and the `{"op":"xray"}` verb can answer from
/// any layer.
pub fn store() -> &'static XrayStore {
    STORE.get_or_init(XrayStore::from_env)
}

/// Front-end entry point: decide sampling for one request line and, when
/// sampled, open its root `net.connection` span. Returns the context to
/// pass into `Engine::submit` (the root span is the parent). The line is
/// only substring-scanned for the force-sample marker `"xray":true` —
/// no JSON parsing happens here.
pub fn begin_request(line: &str, frontend: &'static str) -> Option<TraceContext> {
    let s = store();
    if !s.enabled() {
        return None;
    }
    let force = line.contains("\"xray\":true");
    if !s.should_sample(force) {
        return None;
    }
    Some(s.begin_root(frontend))
}

/// Front-end exit point: close the root span and assemble the finished
/// trace into the store. Idempotent — a response delivered through both
/// an inline path and a late completion finishes the root exactly once.
pub fn finish_request(ctx: TraceContext) {
    store().finish_root(ctx);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_children_share_the_trace() {
        let ctx = TraceContext {
            trace_id: 7,
            parent_span: 3,
        };
        let child = ctx.child_of(9);
        assert_eq!(child.trace_id, 7);
        assert_eq!(child.parent_span, 9);
    }

    #[test]
    fn begin_request_respects_the_master_switch() {
        // the global store defaults to enabled with probabilistic sampling
        // off, so only the explicit marker samples
        let s = store();
        let (was_enabled, was_every) = (s.enabled(), s.sample_every());
        s.set_enabled(true);
        s.set_sample_every(0);
        assert!(begin_request("{\"op\":\"query\"}", "test").is_none());
        let ctx = begin_request("{\"op\":\"query\",\"xray\":true}", "test")
            .expect("explicit marker always samples");
        finish_request(ctx);
        assert!(store().get(ctx.trace_id).is_some());

        s.set_enabled(false);
        assert!(begin_request("{\"op\":\"query\",\"xray\":true}", "test").is_none());
        s.set_enabled(was_enabled);
        s.set_sample_every(was_every);
    }
}
