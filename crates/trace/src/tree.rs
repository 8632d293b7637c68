//! The span-tree sink: head sampling, open traces, completed trees, pinning.
//!
//! A request sampled at the front-end ([`begin_request`]) gets a
//! [`TraceContext`] — trace id + parent span id — that rides the
//! `gbtl_net::Engine::submit` contract down through router, fusion window,
//! pool and `Context`; every interval [`crate::emit`] sees under it lands
//! in that request's tree. The tree completes when its root
//! `net.connection` span finishes ([`finish_request`]); spans arriving
//! after that are dropped (they have no tree to join). Completed trees live in one bounded
//! process-global [`XrayStore`], fetched by trace id and exported as
//! Chrome trace-event JSON ([`crate::chrome`]).
//!
//! Sampling is decided once per request: `GBTL_XRAY_SAMPLE=N` traces one
//! request in `N` (default `0`: none), and a request line carrying
//! `"xray":true` is always traced (a substring check, no parse). An
//! unsampled request has no context, so everything downstream is a
//! `None` test. A tail decision cannot trace a request after the fact;
//! the closest honest thing is *pinning* — the serving layer pins the
//! traces its slow-query log admits ([`XrayStore::pin`]), which keeps them
//! from store eviction.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use gbtl_util::json::{escape, string_map};
use gbtl_util::sync::lock;
use gbtl_util::time::now_ns;

use crate::Attr;

/// The propagated sampling decision: which trace a request belongs to and
/// which span is the parent of whatever the current layer records. `Copy`
/// on purpose — both ids are process-global and never reused, so it
/// crosses thread and closure boundaries freely.
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

/// The process-global span store, its sampling cadence read from
/// `GBTL_XRAY_SAMPLE` on first use. One per process by design: a sharded
/// deployment's router and member pools all feed the same trees, and the
/// `{"op":"xray"}` verb can answer from any layer.
pub fn store() -> &'static XrayStore {
    STORE.get_or_init(XrayStore::from_env)
}

/// Front-end entry point: decide sampling for one request line and, when
/// sampled, open its root `net.connection` span. Returns the context to
/// pass into `Engine::submit` (the root span is the parent).
pub fn begin_request(line: &str, frontend: &'static str) -> Option<TraceContext> {
    let s = store();
    s.should_sample(line.contains("\"xray\":true"))
        .then(|| s.begin_root(frontend))
}

/// Front-end exit point: close the root span and assemble the finished
/// trace into the store. Idempotent — a response delivered through both
/// an inline path and a late completion finishes the root exactly once.
pub fn finish_request(ctx: TraceContext) {
    store().finish_root(ctx);
}

/// Completed traces the process-global store retains.
pub const DEFAULT_STORE_CAP: usize = 256;

/// Spans one open trace accepts before it starts counting drops instead:
/// a sampled request's loop length comes off the wire (`max_iters`), so the
/// list it grows must not.
pub const MAX_SPANS_PER_TRACE: usize = 1024;

/// Bound on the pinned-trace set: pinning protects slow-log entrants from
/// eviction, and the slow log itself is tiny (16), so a small FIFO
/// window of pins is enough — the oldest pin lapses when the window fills.
const PIN_CAP: usize = 64;

/// The name every root span carries — the connection layer's request span.
pub const ROOT_SPAN: &str = "net.connection";

/// One recorded interval in a trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// Process-globally unique span id (never 0, never reused).
    pub span_id: u64,
    /// Parent span id; 0 marks the root.
    pub parent: u64,
    /// Layer-qualified name (`net.connection`, `router.forward`,
    /// `pool.execute`, `op.mxv`, …).
    pub name: String,
    /// Interval start, shared process clock ([`gbtl_util::time::now_ns`]).
    pub start_ns: u64,
    /// Interval end, same clock.
    pub end_ns: u64,
    /// Free-form key/value annotations (shard index, batch size, nnz, …).
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// Interval length in nanoseconds (0 for a malformed reversed span).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"span_id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"attrs\":{}}}",
            self.span_id,
            self.parent,
            escape(&self.name),
            self.start_ns,
            self.end_ns,
            string_map(&self.attrs)
        )
    }
}

/// A completed span tree, spans sorted by `(start_ns, span_id)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The trace id (never 0).
    pub trace_id: u64,
    /// Every span recorded before the root finished, start-time order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The root span (`parent == 0`), if the tree is well formed.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent == 0)
    }

    /// Root duration in nanoseconds (0 if there is no root).
    pub fn total_ns(&self) -> u64 {
        self.root().map_or(0, Span::duration_ns)
    }

    /// Tree depth: 1 for a root-only trace, 0 for an empty one. Spans
    /// whose parent chain is broken count from their own level up.
    pub fn depth(&self) -> usize {
        let parent_of: HashMap<u64, u64> =
            self.spans.iter().map(|s| (s.span_id, s.parent)).collect();
        let mut max = 0usize;
        for s in &self.spans {
            let mut depth = 1usize;
            let mut cursor = s.parent;
            // the walk is bounded by the span count: ids are unique, so a
            // longer chain would have to revisit one
            while cursor != 0 && depth <= self.spans.len() {
                depth += 1;
                cursor = parent_of.get(&cursor).copied().unwrap_or(0);
            }
            max = max.max(depth);
        }
        max
    }

    /// Check the structural invariants every finished tree must satisfy:
    /// exactly one root, unique span ids, every parent id resolves within
    /// the trace, every child interval nests inside its parent's, and the
    /// span list is sorted by start time. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let roots = self.spans.iter().filter(|s| s.parent == 0).count();
        if roots != 1 {
            return Err(format!("expected exactly one root span, found {roots}"));
        }
        let mut by_id: HashMap<u64, &Span> = HashMap::with_capacity(self.spans.len());
        for s in &self.spans {
            if s.span_id == 0 || by_id.insert(s.span_id, s).is_some() {
                return Err(format!("duplicate or zero span id {}", s.span_id));
            }
        }
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!(
                    "span {} ({}) ends before it starts",
                    s.span_id, s.name
                ));
            }
            if s.parent == 0 {
                continue;
            }
            let Some(p) = by_id.get(&s.parent) else {
                return Err(format!(
                    "span {} ({}) names unknown parent {}",
                    s.span_id, s.name, s.parent
                ));
            };
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {} ({}) [{}, {}] does not nest in parent {} ({}) [{}, {}]",
                    s.span_id,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    p.span_id,
                    p.name,
                    p.start_ns,
                    p.end_ns
                ));
            }
        }
        for pair in self.spans.windows(2) {
            if pair[0].start_ns > pair[1].start_ns {
                return Err("spans are not sorted by start time".into());
            }
        }
        Ok(())
    }

    /// Render the tree as one JSON object:
    /// `{"trace_id":N,"depth":D,"total_ns":T,"spans":[…]}`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"trace_id\":{},\"depth\":{},\"total_ns\":{},\"spans\":[",
            self.trace_id,
            self.depth(),
            self.total_ns()
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&span.to_json());
        }
        s.push_str("]}");
        s
    }
}

/// One row of the store listing (`{"op":"xray"}` with no trace id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// The trace id.
    pub trace_id: u64,
    /// Spans in the completed tree.
    pub spans: usize,
    /// Tree depth.
    pub depth: usize,
    /// Root duration, nanoseconds.
    pub total_ns: u64,
    /// Whether the trace is pinned against eviction.
    pub pinned: bool,
}

impl TraceSummary {
    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace_id\":{},\"spans\":{},\"depth\":{},\"total_ns\":{},\"pinned\":{}}}",
            self.trace_id, self.spans, self.depth, self.total_ns, self.pinned
        )
    }
}

/// An in-flight trace: opened by `begin_root`, closed by `finish_root`.
#[derive(Debug)]
struct OpenTrace {
    root_span: u64,
    root_start_ns: u64,
    frontend: &'static str,
    spans: Vec<Span>,
    /// Spans refused once `spans` held [`MAX_SPANS_PER_TRACE`].
    dropped: u64,
}

#[derive(Debug, Default)]
struct Inner {
    open: HashMap<u64, OpenTrace>,
    /// Open-trace ids in begin order, so abandoned traces (a root that
    /// never finishes) age out instead of leaking.
    open_order: VecDeque<u64>,
    done: VecDeque<Trace>,
    pinned: VecDeque<u64>,
}

/// The bounded trace store. One instance is process-global ([`store`]);
/// tests construct private ones with [`XrayStore::new`].
#[derive(Debug)]
pub struct XrayStore {
    enabled: bool,
    sample_every: u64,
    sample_counter: AtomicU64,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    cap: usize,
    inner: Mutex<Inner>,
}

impl XrayStore {
    /// A store with explicit settings (tests and embedding).
    pub fn new(enabled: bool, sample_every: u64, cap: usize) -> XrayStore {
        XrayStore {
            enabled,
            sample_every,
            sample_counter: AtomicU64::new(0),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            cap: cap.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A live store sampling 1 request in `GBTL_XRAY_SAMPLE` (0 — the
    /// default — restricts sampling to explicit `"xray":true` requests),
    /// retaining [`DEFAULT_STORE_CAP`] completed trees.
    pub fn from_env() -> XrayStore {
        XrayStore::new(
            true,
            gbtl_util::env::u64_var("GBTL_XRAY_SAMPLE", 0).unwrap_or(0),
            DEFAULT_STORE_CAP,
        )
    }

    /// Whether the store samples at all (a store built disabled never does).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The current 1-in-N sampling cadence (0 = explicit-only).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// The head-sampling decision: `force` (the `"xray":true` marker)
    /// always samples; otherwise one request in `sample_every` does.
    /// Disabled stores never sample.
    pub fn should_sample(&self, force: bool) -> bool {
        if force || !self.enabled {
            return self.enabled;
        }
        let every = self.sample_every;
        every != 0
            && self
                .sample_counter
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(every)
    }

    /// Allocate a span id without recording anything — for layers that
    /// need the id as a parent before the interval's end is known.
    #[inline]
    pub fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a trace: allocate its id, stamp the root `net.connection`
    /// span's start, and return the context whose `parent_span` is the
    /// root. A begin without a matching [`finish_root`](Self::finish_root) ages out once the
    /// open set exceeds the store bound.
    pub fn begin_root(&self, frontend: &'static str) -> TraceContext {
        let trace_id = self.next_trace.fetch_add(1, Ordering::Relaxed);
        let root_span = self.next_span_id();
        let mut inner = lock(&self.inner);
        inner.open.insert(
            trace_id,
            OpenTrace {
                root_span,
                root_start_ns: now_ns(),
                frontend,
                spans: Vec::new(),
                dropped: 0,
            },
        );
        inner.open_order.push_back(trace_id);
        while inner.open.len() > self.cap {
            match inner.open_order.pop_front() {
                Some(stale) => {
                    inner.open.remove(&stale);
                }
                None => break,
            }
        }
        TraceContext {
            trace_id,
            parent_span: root_span,
        }
    }

    /// Close a trace's root span and move the assembled tree into the
    /// completed store. Idempotent: the second call for a context finds no
    /// open trace and does nothing.
    pub fn finish_root(&self, ctx: TraceContext) {
        let end_ns = now_ns();
        let mut inner = lock(&self.inner);
        let Some(open) = inner.open.remove(&ctx.trace_id) else {
            return;
        };
        inner.open_order.retain(|&t| t != ctx.trace_id);
        let mut spans = open.spans;
        let mut attrs = vec![("frontend".into(), open.frontend.into())];
        if open.dropped > 0 {
            attrs.push(("dropped_spans".into(), open.dropped.to_string()));
        }
        spans.push(Span {
            trace_id: ctx.trace_id,
            span_id: open.root_span,
            parent: 0,
            name: ROOT_SPAN.into(),
            start_ns: open.root_start_ns,
            end_ns,
            attrs,
        });
        spans.sort_by_key(|s| (s.start_ns, s.span_id));
        inner.done.push_back(Trace {
            trace_id: ctx.trace_id,
            spans,
        });
        while inner.done.len() > self.cap {
            // evict the oldest unpinned trace; if everything is pinned the
            // oldest pin loses (the store bound is the harder promise)
            let victim = inner
                .done
                .iter()
                .position(|t| !inner.pinned.contains(&t.trace_id))
                .unwrap_or(0);
            inner.done.remove(victim);
        }
    }

    /// Keep a finished interval as a child within `ctx`'s trace, rendering
    /// its attributes. Returns the span id (0 if nothing was kept: the
    /// trace is unknown — already finished, evicted, never sampled — or
    /// already holds [`MAX_SPANS_PER_TRACE`] spans).
    pub fn add_span(
        &self,
        ctx: TraceContext,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        attrs: &[(&str, Attr<'_>)],
    ) -> u64 {
        self.add_span_with_id(0, ctx, name, start_ns, end_ns, attrs)
    }

    /// [`add_span`](Self::add_span) under a caller-allocated id (from
    /// [`next_span_id`](Self::next_span_id); 0 allocates one here) — used
    /// when children recorded *during* the interval already named this id
    /// as their parent.
    pub fn add_span_with_id(
        &self,
        span_id: u64,
        ctx: TraceContext,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        attrs: &[(&str, Attr<'_>)],
    ) -> u64 {
        let mut inner = lock(&self.inner);
        let Some(open) = inner.open.get_mut(&ctx.trace_id) else {
            return 0;
        };
        let span_id = match span_id {
            // an id handed out ahead of time is already some kept span's
            // parent (an execute span closes after the ops under it), so it
            // is kept whatever the count: one per hop, not one per iteration
            0 if open.spans.len() >= MAX_SPANS_PER_TRACE => {
                open.dropped += 1;
                return 0;
            }
            0 => self.next_span_id(),
            id => id,
        };
        open.spans.push(Span {
            trace_id: ctx.trace_id,
            span_id,
            parent: ctx.parent_span,
            name: name.into(),
            start_ns,
            end_ns,
            attrs: attrs
                .iter()
                .map(|(k, v)| ((*k).into(), v.to_string()))
                .collect(),
        });
        span_id
    }

    /// Fetch a completed trace by id.
    pub fn get(&self, trace_id: u64) -> Option<Trace> {
        let inner = lock(&self.inner);
        inner
            .done
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Tree depth of a completed trace (0 if unknown).
    pub fn depth(&self, trace_id: u64) -> usize {
        self.get(trace_id).map_or(0, |t| t.depth())
    }

    /// Pin a trace against eviction (bounded FIFO of pins — the oldest pin
    /// lapses when the window fills). The slow-query log pins its entrants
    /// so the top-K slow traces stay fetchable.
    pub fn pin(&self, trace_id: u64) {
        if trace_id == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        if inner.pinned.contains(&trace_id) {
            return;
        }
        inner.pinned.push_back(trace_id);
        while inner.pinned.len() > PIN_CAP {
            inner.pinned.pop_front();
        }
    }

    /// Summaries of the most recently completed traces, newest first.
    pub fn recent(&self, limit: usize) -> Vec<TraceSummary> {
        let inner = lock(&self.inner);
        inner
            .done
            .iter()
            .rev()
            .take(limit)
            .map(|t| TraceSummary {
                trace_id: t.trace_id,
                spans: t.spans.len(),
                depth: t.depth(),
                total_ns: t.total_ns(),
                pinned: inner.pinned.contains(&t.trace_id),
            })
            .collect()
    }

    /// Completed traces currently retained.
    pub fn completed(&self) -> usize {
        lock(&self.inner).done.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_request(store: &XrayStore) -> u64 {
        let ctx = store.begin_root("test");
        let t0 = now_ns();
        let exec = store.next_span_id();
        store.add_span_with_id(exec, ctx, "pool.execute", t0, now_ns() + 10, &[]);
        store.add_span(
            ctx.child_of(exec),
            "op.mxv",
            t0 + 1,
            t0 + 5,
            &[("nnz", Attr::U64(42))],
        );
        store.finish_root(ctx);
        ctx.trace_id
    }

    #[test]
    fn sampling_cadence_and_force() {
        let s = XrayStore::new(true, 4, 8);
        let sampled = (0..8).filter(|_| s.should_sample(false)).count();
        assert_eq!(sampled, 2, "1 in 4 of 8 requests");
        assert!(s.should_sample(true), "force always samples");
        let off = XrayStore::new(false, 4, 8);
        assert!(!off.should_sample(true), "disabled store never samples");
        let t = XrayStore::new(true, 0, 8);
        assert!(!t.should_sample(false), "cadence 0 is explicit-only");
        assert!(t.should_sample(true));
    }

    #[test]
    fn context_children_share_the_trace() {
        let ctx = TraceContext {
            trace_id: 7,
            parent_span: 3,
        };
        assert_eq!(
            ctx.child_of(9),
            TraceContext {
                trace_id: 7,
                parent_span: 9
            }
        );
    }

    #[test]
    fn begin_request_samples_only_the_explicit_marker_by_default() {
        // the global store's cadence defaults to 0: explicit-only
        assert!(begin_request("{\"op\":\"query\"}", "test").is_none());
        let ctx = begin_request("{\"op\":\"query\",\"xray\":true}", "test")
            .expect("explicit marker always samples");
        finish_request(ctx);
        assert!(store().get(ctx.trace_id).is_some());
    }

    #[test]
    fn an_open_trace_stops_growing_at_the_cap_and_says_so() {
        let s = XrayStore::new(true, 0, 8);
        let ctx = s.begin_root("test");
        let t0 = now_ns();
        // the execute span closes after the ops under it, as in the pool
        let exec = s.next_span_id();
        for _ in 0..MAX_SPANS_PER_TRACE + 10 {
            s.add_span(ctx.child_of(exec), "op.mxv", t0, t0, &[]);
        }
        assert_eq!(s.add_span(ctx, "pool.serialize", t0, t0, &[]), 0);
        assert_eq!(
            s.add_span_with_id(exec, ctx, "pool.execute", t0, t0, &[]),
            exec,
            "the parent the kept ops name is kept"
        );
        s.finish_root(ctx);
        let t = s.get(ctx.trace_id).unwrap();
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE + 2);
        let root = t.root().unwrap();
        let dropped = root.attrs.iter().find(|(k, _)| k == "dropped_spans");
        assert_eq!(dropped.map(|(_, v)| v.as_str()), Some("11"));
        t.validate().expect("every kept span's parent was kept");
        // a trace that fits says nothing
        let fits = s.get(traced_request(&s)).unwrap();
        let root = fits.root().unwrap();
        assert!(root.attrs.iter().all(|(k, _)| k != "dropped_spans"));
    }

    #[test]
    fn root_lifecycle_assembles_a_sorted_valid_tree() {
        let s = XrayStore::new(true, 0, 8);
        let id = traced_request(&s);
        let t = s.get(id).expect("completed trace");
        assert_eq!(t.root().unwrap().name, ROOT_SPAN);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.depth(), 3);
        t.validate().expect("invariants hold");
        assert!(t.total_ns() > 0);
        // idempotent finish: a second call must not duplicate the trace
        s.finish_root(TraceContext {
            trace_id: id,
            parent_span: t.root().unwrap().span_id,
        });
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn late_spans_after_finish_are_dropped() {
        let s = XrayStore::new(true, 0, 8);
        let ctx = s.begin_root("test");
        s.finish_root(ctx);
        assert_eq!(s.add_span(ctx, "late", 1, 2, &[]), 0);
        assert_eq!(s.get(ctx.trace_id).unwrap().spans.len(), 1);
    }

    #[test]
    fn eviction_respects_pins() {
        let s = XrayStore::new(true, 0, 2);
        let a = traced_request(&s);
        s.pin(a);
        let b = traced_request(&s);
        let c = traced_request(&s); // evicts b (a is pinned)
        assert!(s.get(a).is_some(), "pinned trace survives");
        assert!(s.get(b).is_none(), "oldest unpinned trace evicted");
        assert!(s.get(c).is_some());
        assert_eq!(s.completed(), 2);
        assert_eq!(s.depth(a), 3);
        assert_eq!(s.depth(b), 0);
    }

    #[test]
    fn abandoned_open_traces_age_out() {
        let s = XrayStore::new(true, 0, 2);
        let stale = s.begin_root("test");
        let _b = s.begin_root("test");
        let _c = s.begin_root("test"); // pushes the open set past cap
        s.finish_root(stale); // no-op: already aged out
        assert_eq!(s.completed(), 0);
    }

    #[test]
    fn validate_catches_broken_trees() {
        let mk = |spans: Vec<Span>| Trace { trace_id: 1, spans };
        let span = |id: u64, parent: u64, start: u64, end: u64| Span {
            trace_id: 1,
            span_id: id,
            parent,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            attrs: vec![],
        };
        assert!(mk(vec![span(1, 0, 0, 10), span(2, 0, 1, 2)])
            .validate()
            .unwrap_err()
            .contains("one root"));
        assert!(mk(vec![span(1, 0, 0, 10), span(2, 9, 1, 2)])
            .validate()
            .unwrap_err()
            .contains("unknown parent"));
        assert!(mk(vec![span(1, 0, 0, 10), span(2, 1, 5, 15)])
            .validate()
            .unwrap_err()
            .contains("does not nest"));
        assert!(
            mk(vec![span(1, 0, 0, 10), span(2, 1, 1, 9), span(2, 1, 2, 8)])
                .validate()
                .unwrap_err()
                .contains("duplicate")
        );
        mk(vec![span(1, 0, 0, 10), span(2, 1, 1, 9), span(3, 2, 2, 8)])
            .validate()
            .expect("well-formed chain passes");
    }

    #[test]
    fn json_and_summaries_render() {
        let s = XrayStore::new(true, 0, 8);
        let id = traced_request(&s);
        let t = s.get(id).unwrap();
        let v = gbtl_util::json::parse(&t.to_json()).expect("trace JSON parses");
        assert_eq!(v.u64_field("trace_id"), Some(id));
        assert_eq!(v.u64_field("depth"), Some(3));
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].str_field("name"), Some(ROOT_SPAN));
        let recent = s.recent(10);
        assert_eq!(recent.len(), 1);
        let rv = gbtl_util::json::parse(&recent[0].to_json()).unwrap();
        assert_eq!(rv.u64_field("spans"), Some(3));
    }
}
