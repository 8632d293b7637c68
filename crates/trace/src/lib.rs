#![warn(missing_docs)]

//! # gbtl-trace — cross-backend operation tracing for GBTL-RS
//!
//! A lightweight, always-compiled instrumentation subsystem. The GraphBLAS
//! frontend (`gbtl-core`) owns one [`Tracer`] per `Context`; every operation
//! it dispatches (`mxm`, `mxv`, `vxm`, `eWise*`, `apply`, `reduce`,
//! `transpose`, `build`, `extract`, `assign`, `select`, `kronecker`) emits a
//! [`SpanRecord`] — op name, backend, operand dims, nnz in/out, operator
//! label, mask/accum flags, wall duration — into a bounded per-context ring
//! buffer, with running per-op aggregates kept alongside so call counts stay
//! exact even after the ring wraps.
//!
//! ## Overhead contract
//!
//! * **Disabled** ([`TraceMode::Off`], the default): every hook is one
//!   branch on a cached enum field plus one relaxed atomic load (the x-ray
//!   context check). No allocation, no clock reads, no lock.
//! * **Enabled**: two `Instant` reads, one short mutex hold, and a handful of
//!   small allocations (label/dims strings) per op — amortised against
//!   kernels that touch thousands-to-millions of entries (<5% target,
//!   measured in EXPERIMENTS.md).
//!
//! ## Activation
//!
//! `GBTL_TRACE=off|summary|json` selects the mode contexts pick up at
//! construction ([`TraceMode::from_env`]); the ring holds
//! [`DEFAULT_RING_CAPACITY`] spans. Programmatic control goes through the
//! owning context (`ctx.set_trace_mode(..)` / `ctx.trace()` in `gbtl-core`).
//!
//! Backend-specific detail — work-stealing pool counters, simulated-device
//! kernel stats — attaches to a [`TraceReport`] as generic [`Section`]s, so
//! this crate stays dependency-free and every backend shares one report
//! shape. Reporters live in [`report`]; a minimal JSON reader for verifying
//! the JSON-lines output lives in [`json`].

pub mod json;
pub mod report;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What the tracer records and how reporters should render it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing; hooks cost one branch (the default).
    #[default]
    Off,
    /// Record spans; render as a pretty table.
    Summary,
    /// Record spans; render as JSON lines.
    Json,
}

impl std::str::FromStr for TraceMode {
    type Err = ();

    /// Strict spelling check: recognised values parse, anything else is an
    /// error (so env handling can warn on typos).
    fn from_str(s: &str) -> Result<TraceMode, ()> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "false" | "none" => Ok(TraceMode::Off),
            "summary" | "on" | "1" | "true" => Ok(TraceMode::Summary),
            "json" | "jsonl" => Ok(TraceMode::Json),
            _ => Err(()),
        }
    }
}

impl TraceMode {
    /// Parse a `GBTL_TRACE` value. `summary`/`on`/`1` → [`TraceMode::Summary`],
    /// `json`/`jsonl` → [`TraceMode::Json`], everything else → [`TraceMode::Off`].
    pub fn parse(s: &str) -> TraceMode {
        s.parse().unwrap_or(TraceMode::Off)
    }

    /// The mode selected by the `GBTL_TRACE` environment variable
    /// (unset → [`TraceMode::Off`]; set but unrecognised → a warning on
    /// stderr, then [`TraceMode::Off`], the workspace env contract).
    pub fn from_env() -> TraceMode {
        gbtl_util::env::parsed_var("GBTL_TRACE", |_| true).unwrap_or_default()
    }

    /// The canonical spelling (`off`/`summary`/`json`).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Summary => "summary",
            TraceMode::Json => "json",
        }
    }

    /// Whether spans are recorded at all.
    #[inline]
    pub fn enabled(self) -> bool {
        self != TraceMode::Off
    }
}

/// Opaque span handle returned by [`Tracer::start`]. Holds the start clock
/// reading when tracing is on, nothing when it is off.
#[derive(Debug)]
#[must_use]
pub struct SpanStart(Option<Instant>);

/// The per-span payload an instrumentation site supplies to
/// [`Tracer::finish`]. Built inside a closure so nothing here is computed
/// when tracing is off.
#[derive(Debug, Clone)]
pub struct SpanFields {
    /// Operation name (`"mxm"`, `"vxm"`, `"ewise_add_mat"`, …).
    pub op: &'static str,
    /// Short operator/semiring label (e.g. `"PlusTimes<i64>"`); empty for
    /// index-space ops with no operator.
    pub op_label: String,
    /// Compact operand-dimension string (e.g. `"512x512*512x512"`).
    pub dims: String,
    /// Stored entries across all inputs.
    pub nnz_in: u64,
    /// Stored entries in the output (0 for scalar reductions that found
    /// nothing).
    pub nnz_out: u64,
    /// Whether a mask was supplied.
    pub masked: bool,
    /// Whether the mask was complemented via the descriptor.
    pub complemented: bool,
    /// Whether an accumulator was supplied.
    pub accum: bool,
}

/// What a traversal records about one level ([`Tracer::finish_level`]):
/// the decision (`dir`, `rep`) and the inputs it was taken from.
#[derive(Debug, Clone, Copy)]
pub struct LevelFields {
    /// Algorithm name (`"bfs"`, `"sssp_multi"`, …).
    pub algo: &'static str,
    /// Level / round index, from 1.
    pub level: u64,
    /// `push` or `pull`.
    pub dir: &'static str,
    /// `sparse` or `bitmap`.
    pub rep: &'static str,
    /// Frontier entries going in.
    pub frontier_nnz: u64,
    /// Entries of the next frontier.
    pub nnz_out: u64,
    /// Edges push would walk.
    pub push_edges: u64,
    /// Edges pull would scan.
    pub pull_edges: u64,
    /// Whether `Aᵀ` was resident (pull was available to `Auto`).
    pub pull_ready: bool,
}

/// One completed operation span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Monotonic per-context sequence number (0-based).
    pub seq: u64,
    /// Backend the context dispatched to.
    pub backend: &'static str,
    /// The serving-layer request this span ran on behalf of, if the
    /// context had one set ([`Tracer::set_request_id`]) — how a JSON trace
    /// taken during a serve run is grouped back per request.
    pub request_id: Option<u64>,
    /// Span start on the shared process clock
    /// ([`gbtl_util::time::now_ns`]) — comparable across contexts, and the
    /// ordering key [`report::group_by_request`] sorts by.
    pub start_ns: u64,
    /// Wall duration of the whole frontend op (validation + kernel +
    /// mask/accumulator stitch), in nanoseconds.
    pub duration_ns: u64,
    /// The site-supplied payload.
    pub fields: SpanFields,
}

/// Aggregated statistics for one operation name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpSummary {
    /// Operation name.
    pub op: &'static str,
    /// Number of completed calls.
    pub calls: u64,
    /// Total wall time across calls, nanoseconds.
    pub total_ns: u64,
    /// Slowest single call, nanoseconds.
    pub max_ns: u64,
    /// Total input nnz across calls.
    pub nnz_in: u64,
    /// Total output nnz across calls.
    pub nnz_out: u64,
}

impl OpSummary {
    /// Mean wall time per call, nanoseconds.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }

    /// Input-nnz throughput in million entries per second of op wall time.
    pub fn mnnz_per_s(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.nnz_in as f64 / (self.total_ns as f64 / 1e9) / 1e6
        }
    }
}

/// A backend-specific key/value block attached to a [`TraceReport`]
/// (work-stealing pool counters, simulated-device kernel stats, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section heading.
    pub title: String,
    /// Ordered key/value rows.
    pub entries: Vec<(String, String)>,
}

/// Everything one context observed: per-op aggregates, the retained span
/// ring, and any backend sections.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Backend name the spans ran on.
    pub backend: &'static str,
    /// Mode the tracer was in when the report was taken.
    pub mode: TraceMode,
    /// Per-op aggregates (exact even when the ring wrapped), sorted by
    /// total time descending.
    pub ops: Vec<OpSummary>,
    /// The retained (most recent) spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Total spans ever recorded (may exceed `spans.len()`).
    pub total_spans: u64,
    /// Spans evicted from the ring to make room.
    pub dropped_spans: u64,
    /// Backend-specific sections.
    pub sections: Vec<Section>,
}

impl TraceReport {
    /// Total op wall time across all aggregates, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.total_ns).sum()
    }

    /// The aggregate for one op name, if it was ever called.
    pub fn op(&self, name: &str) -> Option<&OpSummary> {
        self.ops.iter().find(|o| o.op == name)
    }
}

#[derive(Debug, Default)]
struct TracerInner {
    seq: u64,
    dropped: u64,
    ring: VecDeque<SpanRecord>,
    agg: BTreeMap<&'static str, OpSummary>,
}

/// The per-context span recorder.
///
/// `start`/`finish` bracket each operation; when the cached [`TraceMode`] is
/// `Off` both are a single branch (no clock reads, no allocation, no lock).
#[derive(Debug)]
pub struct Tracer {
    backend: &'static str,
    mode: TraceMode,
    capacity: usize,
    /// Current request id + 1 (0 = no request). Atomic so the serving
    /// layer can stamp/unstamp through a shared `&Context`.
    current_request: AtomicU64,
    /// X-ray trace id the current request was sampled into (0 = none).
    /// While set, every finished op also lands as an `op.*` span in the
    /// process-global [`gbtl_xray`] store — even in [`TraceMode::Off`],
    /// because the sampling decision belongs to the request, not to this
    /// tracer's mode.
    xray_trace: AtomicU64,
    /// Parent span id for recorded x-ray op spans (the serving layer's
    /// execute span).
    xray_parent: AtomicU64,
    inner: Mutex<TracerInner>,
}

/// Span-ring capacity of every tracer not built by [`Tracer::with_capacity`].
pub const DEFAULT_RING_CAPACITY: usize = 8192;

impl Tracer {
    /// A tracer in the mode selected by `GBTL_TRACE`.
    pub fn from_env(backend: &'static str) -> Self {
        Self::with_mode(backend, TraceMode::from_env())
    }

    /// A tracer pinned to an explicit mode, with a
    /// [`DEFAULT_RING_CAPACITY`]-span ring.
    pub fn with_mode(backend: &'static str, mode: TraceMode) -> Self {
        Self::with_capacity(backend, mode, DEFAULT_RING_CAPACITY)
    }

    /// A tracer with an explicit ring capacity.
    pub fn with_capacity(backend: &'static str, mode: TraceMode, capacity: usize) -> Self {
        Tracer {
            backend,
            mode,
            capacity: capacity.max(1),
            current_request: AtomicU64::new(0),
            xray_trace: AtomicU64::new(0),
            xray_parent: AtomicU64::new(0),
            inner: Mutex::new(TracerInner::default()),
        }
    }

    /// The span-ring capacity this tracer was built with.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current mode.
    #[inline]
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Switch modes. Already-recorded spans are kept; turning tracing off
    /// stops recording without clearing.
    pub fn set_mode(&mut self, mode: TraceMode) {
        self.mode = mode;
    }

    /// The backend name stamped onto every span.
    #[inline]
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// Stamp (or clear, with `None`) the request id recorded on subsequent
    /// spans. The serving layer sets this around each query so backend
    /// spans can be attributed to the request that caused them. Ids of
    /// `u64::MAX` are reserved (stored internally as id + 1).
    #[inline]
    pub fn set_request_id(&self, id: Option<u64>) {
        self.current_request
            .store(id.map_or(0, |i| i.wrapping_add(1)), Ordering::Relaxed);
    }

    /// The request id subsequent spans will carry, if one is set.
    #[inline]
    pub fn request_id(&self) -> Option<u64> {
        match self.current_request.load(Ordering::Relaxed) {
            0 => None,
            stamped => Some(stamped - 1),
        }
    }

    /// Stamp (or clear, with `None`) the x-ray context recorded on
    /// subsequent spans. While set, each finished op is *also* recorded as
    /// an `op.<name>` child span in the process-global [`gbtl_xray`] store
    /// under the given parent — regardless of [`TraceMode`], so a sampled
    /// request's tree reaches kernel depth even when op tracing is off.
    #[inline]
    pub fn set_xray(&self, ctx: Option<gbtl_xray::TraceContext>) {
        match ctx {
            Some(c) => {
                self.xray_parent.store(c.parent_span, Ordering::Relaxed);
                self.xray_trace.store(c.trace_id, Ordering::Relaxed);
            }
            None => {
                self.xray_trace.store(0, Ordering::Relaxed);
                self.xray_parent.store(0, Ordering::Relaxed);
            }
        }
    }

    /// The x-ray context subsequent spans will record under, if set.
    #[inline]
    pub fn xray(&self) -> Option<gbtl_xray::TraceContext> {
        match self.xray_trace.load(Ordering::Relaxed) {
            0 => None,
            trace_id => Some(gbtl_xray::TraceContext {
                trace_id,
                parent_span: self.xray_parent.load(Ordering::Relaxed),
            }),
        }
    }

    /// Open a span. When tracing is off and no x-ray context is set this
    /// is one branch plus one relaxed load, and returns an empty handle
    /// without touching the clock.
    #[inline]
    pub fn start(&self) -> SpanStart {
        if self.mode.enabled() || self.xray_trace.load(Ordering::Relaxed) != 0 {
            SpanStart(Some(Instant::now()))
        } else {
            SpanStart(None)
        }
    }

    /// Close a span. `fields` only runs when the span was actually opened,
    /// so sites can defer all string building into it.
    #[inline]
    pub fn finish(&self, start: SpanStart, fields: impl FnOnce() -> SpanFields) {
        let Some(t0) = start.0 else { return };
        let duration_ns = t0.elapsed().as_nanos() as u64;
        let end_ns = gbtl_util::time::now_ns();
        let start_ns = end_ns.saturating_sub(duration_ns);
        let fields = fields();
        if let Some(ctx) = self.xray() {
            gbtl_xray::store().add_span(
                ctx,
                &format!("op.{}", fields.op),
                start_ns,
                end_ns,
                &[
                    ("backend", self.backend.to_string()),
                    ("dims", fields.dims.clone()),
                    ("nnz_in", fields.nnz_in.to_string()),
                    ("nnz_out", fields.nnz_out.to_string()),
                ],
            );
        }
        if self.mode.enabled() {
            self.record(start_ns, duration_ns, fields);
        }
    }

    /// Close a *traversal level* span: one `level` op record in the ring
    /// (op_label carries the algorithm, the direction decision and the
    /// inputs it was taken from) plus, when an x-ray context is set, a
    /// `level.<algo>` span with the same facts as attributes — the
    /// per-iteration decision record: "why did this level pull" is
    /// answerable from the one span.
    pub fn finish_level(&self, start: SpanStart, level: LevelFields) {
        let Some(t0) = start.0 else { return };
        let duration_ns = t0.elapsed().as_nanos() as u64;
        let end_ns = gbtl_util::time::now_ns();
        let start_ns = end_ns.saturating_sub(duration_ns);
        let LevelFields {
            algo,
            level: index,
            dir,
            rep,
            frontier_nnz,
            nnz_out,
            push_edges,
            pull_edges,
            pull_ready,
        } = level;
        if let Some(ctx) = self.xray() {
            gbtl_xray::store().add_span(
                ctx,
                &format!("level.{algo}"),
                start_ns,
                end_ns,
                &[
                    ("backend", self.backend.to_string()),
                    ("level", index.to_string()),
                    ("dir", dir.to_string()),
                    ("rep", rep.to_string()),
                    ("frontier_nnz", frontier_nnz.to_string()),
                    ("push_edges", push_edges.to_string()),
                    ("pull_edges", pull_edges.to_string()),
                    ("pull_ready", pull_ready.to_string()),
                ],
            );
        }
        if self.mode.enabled() {
            self.record(
                start_ns,
                duration_ns,
                SpanFields {
                    op: "level",
                    op_label: format!(
                        "{algo} dir={dir} rep={rep} push_edges={push_edges} \
                         pull_edges={pull_edges} pull_ready={pull_ready}"
                    ),
                    dims: format!("level={index}"),
                    nnz_in: frontier_nnz,
                    nnz_out,
                    masked: false,
                    complemented: false,
                    accum: false,
                },
            );
        }
    }

    fn record(&self, start_ns: u64, duration_ns: u64, fields: SpanFields) {
        let request_id = self.request_id();
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.seq;
        inner.seq += 1;

        let agg = inner.agg.entry(fields.op).or_default();
        agg.op = fields.op;
        agg.calls += 1;
        agg.total_ns += duration_ns;
        agg.max_ns = agg.max_ns.max(duration_ns);
        agg.nnz_in += fields.nnz_in;
        agg.nnz_out += fields.nnz_out;

        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(SpanRecord {
            seq,
            backend: self.backend,
            request_id,
            start_ns,
            duration_ns,
            fields,
        });
    }

    /// Total spans recorded so far.
    pub fn total_spans(&self) -> u64 {
        self.inner.lock().unwrap().seq
    }

    /// Drop all recorded spans and aggregates (mode is unchanged).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        *inner = TracerInner::default();
    }

    /// Snapshot everything recorded, attaching the given backend sections.
    pub fn report(&self, sections: Vec<Section>) -> TraceReport {
        let inner = self.inner.lock().unwrap();
        let mut ops: Vec<OpSummary> = inner.agg.values().cloned().collect();
        ops.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.op.cmp(b.op)));
        TraceReport {
            backend: self.backend,
            mode: self.mode,
            ops,
            spans: inner.ring.iter().cloned().collect(),
            total_spans: inner.seq,
            dropped_spans: inner.dropped,
            sections,
        }
    }
}

/// `std::any::type_name` with every module path stripped, including inside
/// generic arguments: `gbtl_algebra::semiring::PlusTimes<i64>` →
/// `PlusTimes<i64>`. Used for operator/semiring span labels.
pub fn short_type_name<T: ?Sized>() -> String {
    let full = std::any::type_name::<T>();
    let mut out = String::with_capacity(full.len());
    let mut ident = String::new();
    for ch in full.chars() {
        if ch.is_alphanumeric() || ch == '_' {
            ident.push(ch);
        } else if ch == ':' {
            // path separator: the segment collected so far was a module
            ident.clear();
        } else {
            out.push_str(&ident);
            ident.clear();
            out.push(ch);
        }
    }
    out.push_str(&ident);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(op: &'static str, nnz_in: u64, nnz_out: u64) -> SpanFields {
        SpanFields {
            op,
            op_label: "PlusTimes<i64>".into(),
            dims: "4x4*4x4".into(),
            nnz_in,
            nnz_out,
            masked: false,
            complemented: false,
            accum: false,
        }
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(TraceMode::parse("summary"), TraceMode::Summary);
        assert_eq!(TraceMode::parse("JSON"), TraceMode::Json);
        assert_eq!(TraceMode::parse("jsonl"), TraceMode::Json);
        assert_eq!(TraceMode::parse("on"), TraceMode::Summary);
        assert_eq!(TraceMode::parse("off"), TraceMode::Off);
        assert_eq!(TraceMode::parse("nonsense"), TraceMode::Off);
        assert_eq!(TraceMode::Json.as_str(), "json");
        assert!(!TraceMode::Off.enabled());
        assert!(TraceMode::Summary.enabled());
    }

    #[test]
    fn off_records_nothing_and_skips_field_building() {
        let t = Tracer::with_mode("test", TraceMode::Off);
        let s = t.start();
        t.finish(s, || panic!("fields closure must not run when off"));
        assert_eq!(t.total_spans(), 0);
        let rep = t.report(Vec::new());
        assert!(rep.spans.is_empty() && rep.ops.is_empty());
        assert_eq!(rep.total_spans, 0);
    }

    #[test]
    fn spans_aggregate_per_op() {
        let t = Tracer::with_mode("test", TraceMode::Summary);
        for i in 0..3 {
            let s = t.start();
            t.finish(s, || fields("mxm", 10 + i, 5));
        }
        let s = t.start();
        t.finish(s, || fields("mxv", 7, 4));
        let rep = t.report(Vec::new());
        assert_eq!(rep.total_spans, 4);
        assert_eq!(rep.spans.len(), 4);
        let mxm = rep.op("mxm").unwrap();
        assert_eq!(mxm.calls, 3);
        assert_eq!(mxm.nnz_in, 33);
        assert_eq!(mxm.nnz_out, 15);
        assert!(mxm.mean_ns() <= mxm.max_ns);
        assert_eq!(rep.op("mxv").unwrap().calls, 1);
        assert!(rep.op("transpose").is_none());
        // spans keep order and sequence numbers
        assert_eq!(rep.spans[0].seq, 0);
        assert_eq!(rep.spans[3].seq, 3);
        assert_eq!(rep.spans[3].fields.op, "mxv");
    }

    #[test]
    fn ring_wraps_but_aggregates_stay_exact() {
        let t = Tracer::with_capacity("test", TraceMode::Summary, 4);
        assert_eq!(t.capacity(), 4);
        for _ in 0..10 {
            let s = t.start();
            t.finish(s, || fields("apply_mat", 1, 1));
        }
        let rep = t.report(Vec::new());
        assert_eq!(rep.spans.len(), 4);
        assert_eq!(rep.dropped_spans, 6);
        assert_eq!(rep.total_spans, 10);
        assert_eq!(rep.op("apply_mat").unwrap().calls, 10);
        assert_eq!(rep.spans[0].seq, 6, "oldest retained span is #6");
    }

    #[test]
    fn request_ids_stamp_spans_while_set() {
        let t = Tracer::with_mode("test", TraceMode::Summary);
        assert_eq!(t.request_id(), None);
        let s = t.start();
        t.finish(s, || fields("mxm", 1, 1));

        t.set_request_id(Some(42));
        assert_eq!(t.request_id(), Some(42));
        for _ in 0..2 {
            let s = t.start();
            t.finish(s, || fields("mxv", 1, 1));
        }
        t.set_request_id(Some(0)); // id 0 is a real id, distinct from "none"
        let s = t.start();
        t.finish(s, || fields("vxm", 1, 1));
        t.set_request_id(None);
        assert_eq!(t.request_id(), None);
        let s = t.start();
        t.finish(s, || fields("mxm", 1, 1));

        let ids: Vec<Option<u64>> = t
            .report(Vec::new())
            .spans
            .iter()
            .map(|sp| sp.request_id)
            .collect();
        assert_eq!(ids, vec![None, Some(42), Some(42), Some(0), None]);
    }

    #[test]
    fn xray_context_records_op_spans_even_when_off() {
        let t = Tracer::with_mode("test", TraceMode::Off);
        assert_eq!(t.xray(), None);
        let store = gbtl_xray::store();
        let ctx = store.begin_root("test");
        t.set_xray(Some(ctx));
        assert_eq!(t.xray(), Some(ctx));
        let s = t.start();
        t.finish(s, || fields("mxv", 3, 2));
        t.set_xray(None);
        gbtl_xray::finish_request(ctx);
        let trace = store.get(ctx.trace_id).expect("trace completed");
        let op = trace
            .spans
            .iter()
            .find(|sp| sp.name == "op.mxv")
            .expect("op span recorded despite TraceMode::Off");
        assert_eq!(op.parent, ctx.parent_span);
        assert!(op.attrs.iter().any(|(k, v)| k == "nnz_in" && v == "3"));
        assert_eq!(t.total_spans(), 0, "the span ring stays untouched when off");
    }

    #[test]
    fn level_spans_carry_direction_attributes() {
        let t = Tracer::with_mode("test", TraceMode::Summary);
        let store = gbtl_xray::store();
        let ctx = store.begin_root("lvl-test");
        t.set_xray(Some(ctx));
        let s = t.start();
        t.finish_level(
            s,
            LevelFields {
                algo: "bfs",
                level: 3,
                dir: "pull",
                rep: "bitmap",
                frontier_nnz: 120,
                nnz_out: 80,
                push_edges: 4000,
                pull_edges: 900,
                pull_ready: true,
            },
        );
        t.set_xray(None);
        gbtl_xray::finish_request(ctx);
        let trace = store.get(ctx.trace_id).expect("trace completed");
        let sp = trace
            .spans
            .iter()
            .find(|sp| sp.name == "level.bfs")
            .expect("level span recorded");
        assert!(sp.attrs.iter().any(|(k, v)| k == "dir" && v == "pull"));
        assert!(sp.attrs.iter().any(|(k, v)| k == "rep" && v == "bitmap"));
        assert!(sp.attrs.iter().any(|(k, v)| k == "level" && v == "3"));
        assert!(sp
            .attrs
            .iter()
            .any(|(k, v)| k == "push_edges" && v == "4000"));
        assert!(sp
            .attrs
            .iter()
            .any(|(k, v)| k == "pull_edges" && v == "900"));
        assert!(sp
            .attrs
            .iter()
            .any(|(k, v)| k == "pull_ready" && v == "true"));
        let rep = t.report(Vec::new());
        assert_eq!(rep.op("level").unwrap().calls, 1);
        assert_eq!(
            rep.spans[0].fields.op_label,
            "bfs dir=pull rep=bitmap push_edges=4000 pull_edges=900 pull_ready=true"
        );
        assert_eq!(rep.spans[0].fields.dims, "level=3");
    }

    #[test]
    fn clear_resets_everything() {
        let t = Tracer::with_mode("test", TraceMode::Summary);
        let s = t.start();
        t.finish(s, || fields("build", 3, 3));
        assert_eq!(t.total_spans(), 1);
        t.clear();
        assert_eq!(t.total_spans(), 0);
        assert!(t.report(Vec::new()).ops.is_empty());
    }

    #[test]
    fn set_mode_toggles_recording() {
        let mut t = Tracer::with_mode("test", TraceMode::Off);
        let s = t.start();
        t.finish(s, || fields("mxm", 1, 1));
        assert_eq!(t.total_spans(), 0);
        t.set_mode(TraceMode::Summary);
        let s = t.start();
        t.finish(s, || fields("mxm", 1, 1));
        assert_eq!(t.total_spans(), 1);
    }

    #[test]
    fn short_names() {
        assert_eq!(short_type_name::<u64>(), "u64");
        assert_eq!(
            short_type_name::<std::collections::HashMap<String, Vec<u8>>>(),
            "HashMap<String, Vec<u8>>"
        );
    }
}
