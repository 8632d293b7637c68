//! The op-ring sink: one [`Tracer`] per `Context`, holding the most recent
//! op spans in a bounded ring with exact per-op aggregates beside it, the
//! request stamp those spans carry, the count of ops dispatched whatever
//! the mode, and the snapshot ([`TraceReport`]) the reporters in
//! [`crate::report`] render.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use gbtl_util::sync::lock;
use gbtl_util::time::now_ns;

use crate::tree::TraceContext;
use crate::{Kind, Scope, TraceMode};

/// Opaque span handle returned by [`Tracer::start`]: the start stamp on the
/// shared clock when some sink will keep the span, nothing otherwise.
#[derive(Debug)]
#[must_use]
pub struct SpanStart(Option<u64>);

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

/// What a traversal records about one level ([`Kind::Level`]):
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
    /// Where a device chose what it was charged (an `Auto` level on a
    /// device backend): that direction and both directions' prices.
    pub device: Option<DeviceFields>,
}

/// A device's charge decision for one level: the direction it charged and
/// the modeled nanoseconds it priced each direction at.
#[derive(Debug, Clone, Copy)]
pub struct DeviceFields {
    /// `push` or `pull`: the cheaper price.
    pub dir: &'static str,
    /// Push's price.
    pub price_push_ns: u64,
    /// Pull's price.
    pub price_pull_ns: u64,
}

/// One completed operation span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Monotonic per-context sequence number (0-based).
    pub seq: u64,
    /// Backend the context dispatched to.
    pub backend: &'static str,
    /// The serving-layer request this span ran on behalf of, if the
    /// context was stamped with one ([`Tracer::set_request`]) — how a JSON
    /// trace taken during a serve run is grouped back per request.
    pub request_id: Option<u64>,
    /// Span start on the shared process clock
    /// ([`gbtl_util::time::now_ns`]) — comparable across contexts.
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

/// How the ring renders a level: the algorithm, the decision and its
/// inputs in the label, the level index where an op has its dimensions.
fn level_record(l: LevelFields) -> SpanFields {
    let mut op_label = format!(
        "{} dir={} rep={} push_edges={} pull_edges={} pull_ready={}",
        l.algo, l.dir, l.rep, l.push_edges, l.pull_edges, l.pull_ready
    );
    if let Some(d) = l.device {
        op_label += &format!(
            " device={} price_push_ns={} price_pull_ns={}",
            d.dir, d.price_push_ns, d.price_pull_ns
        );
    }
    SpanFields {
        op: "level",
        op_label,
        dims: format!("level={}", l.level),
        nnz_in: l.frontier_nnz,
        nnz_out: l.nnz_out,
        masked: false,
        complemented: false,
        accum: false,
    }
}

#[derive(Debug, Default)]
struct TracerInner {
    dropped: u64,
    ring: VecDeque<SpanRecord>,
    agg: BTreeMap<&'static str, OpSummary>,
}

/// The per-context span recorder.
///
/// `start`/`finish` bracket each operation; when the cached [`TraceMode`] is
/// `Off` and the context carries neither a sampled nor a recorded request,
/// `start` is two relaxed loads and `finish` one relaxed add (no clock
/// reads, no allocation, no lock).
#[derive(Debug)]
pub struct Tracer {
    backend: &'static str,
    mode: TraceMode,
    capacity: usize,
    /// The request stamp, as four atomics so the serving layer can set and
    /// clear it through a shared `&Context`: request id + 1 (0 = none),
    /// trace id (0 = not sampled), parent span id, and the record bit (the
    /// ring keeps this request's spans whatever the mode).
    request_id: AtomicU64,
    xray_trace: AtomicU64,
    xray_parent: AtomicU64,
    record: AtomicBool,
    /// Spans recorded so far — the next sequence number. Written under the
    /// ring lock, read without it ([`Tracer::total_spans`]).
    total: AtomicU64,
    /// Op and level spans finished, recorded or not
    /// ([`Tracer::dispatched_ops`]).
    dispatched: AtomicU64,
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
            request_id: AtomicU64::new(0),
            xray_trace: AtomicU64::new(0),
            xray_parent: AtomicU64::new(0),
            record: AtomicBool::new(false),
            total: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
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

    /// Stamp the request subsequent spans run on behalf of (clear it with
    /// `(None, None)`): the serving-layer id ring spans are grouped by
    /// (`u64::MAX` is reserved) and, when head sampling chose the request,
    /// where its ops hang in its span tree. While `xray` is set every
    /// finished op lands in that tree regardless of [`TraceMode`] — the
    /// sampling decision belongs to the request, not to this tracer's mode.
    #[inline]
    pub fn set_request(&self, request_id: Option<u64>, xray: Option<TraceContext>) {
        let (trace_id, parent) = xray.map_or((0, 0), |c| (c.trace_id, c.parent_span));
        self.xray_parent.store(parent, Ordering::Relaxed);
        self.xray_trace.store(trace_id, Ordering::Relaxed);
        let stamped = request_id.map_or(0, |i| i.wrapping_add(1));
        self.request_id.store(stamped, Ordering::Relaxed);
    }

    /// Set or clear the stamp's record bit: while it is set the ring keeps
    /// every finished op and level span regardless of [`TraceMode`] — how a
    /// request that asked for its own spans gets them from a context that
    /// records nothing else.
    #[inline]
    pub fn set_record(&self, on: bool) {
        self.record.store(on, Ordering::Relaxed);
    }

    /// The `(request id, tree position)` subsequent spans will carry.
    #[inline]
    pub fn request(&self) -> (Option<u64>, Option<TraceContext>) {
        let xray = match self.xray_trace.load(Ordering::Relaxed) {
            0 => None,
            trace_id => Some(TraceContext {
                trace_id,
                parent_span: self.xray_parent.load(Ordering::Relaxed),
            }),
        };
        (self.request_id.load(Ordering::Relaxed).checked_sub(1), xray)
    }

    /// Open a span. When tracing is off and no sampled or recorded request
    /// is stamped this is one branch plus two relaxed loads, and returns an
    /// empty handle without touching the clock.
    #[inline]
    pub fn start(&self) -> SpanStart {
        let live = self.mode.enabled()
            || self.xray_trace.load(Ordering::Relaxed) != 0
            || self.record.load(Ordering::Relaxed);
        SpanStart(live.then(now_ns))
    }

    /// Close a span: count it as dispatched, then hand the interval to
    /// [`crate::emit`] with this tracer as its scope. `kind` only runs when
    /// the span was actually opened, so sites defer all string building
    /// into it.
    #[inline]
    pub fn finish<'a>(&self, start: SpanStart, kind: impl FnOnce() -> Kind<'a>) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        let Some(t0_ns) = start.0 else { return };
        let scope = Scope {
            tree: self.request().1,
            tracer: Some(self),
            ..Scope::default()
        };
        crate::emit(scope, t0_ns, now_ns(), kind());
    }

    /// The ring sink: keep an op or level span when the mode records or
    /// the stamped request asked to be recorded (stage intervals are not
    /// ops; the ring has no row for them).
    pub(crate) fn keep(&self, start_ns: u64, duration_ns: u64, kind: Kind<'_>) {
        if !self.mode.enabled() && !self.record.load(Ordering::Relaxed) {
            return;
        }
        let fields = match kind {
            Kind::Op(fields) => fields,
            Kind::Level(level) => level_record(level),
            Kind::Stage(..) => return,
        };
        let request_id = self.request_id.load(Ordering::Relaxed).checked_sub(1);
        let mut inner = lock(&self.inner);
        let seq = self.total.fetch_add(1, Ordering::Relaxed);

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

    /// Total spans recorded so far — one atomic load, no lock.
    pub fn total_spans(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Op and level spans finished so far, whether or not any sink kept
    /// them — under a recording mode, and until [`Tracer::clear`], equal to
    /// [`Tracer::total_spans`]. One atomic load, no lock.
    pub fn dispatched_ops(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Drop all recorded spans and aggregates (mode and the dispatched-op
    /// count are unchanged).
    pub fn clear(&self) {
        let mut inner = lock(&self.inner);
        *inner = TracerInner::default();
        self.total.store(0, Ordering::Relaxed);
    }

    /// Snapshot everything recorded, attaching the given backend sections.
    pub fn report(&self, sections: Vec<Section>) -> TraceReport {
        let inner = lock(&self.inner);
        let mut ops: Vec<OpSummary> = inner.agg.values().cloned().collect();
        ops.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.op.cmp(b.op)));
        TraceReport {
            backend: self.backend,
            mode: self.mode,
            ops,
            spans: inner.ring.iter().cloned().collect(),
            total_spans: self.total.load(Ordering::Relaxed),
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
    use crate::tree;

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
        t.finish(s, || panic!("the kind closure must not run when off"));
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
            t.finish(s, || Kind::Op(fields("mxm", 10 + i, 5)));
        }
        let s = t.start();
        t.finish(s, || Kind::Op(fields("mxv", 7, 4)));
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
            t.finish(s, || Kind::Op(fields("apply_mat", 1, 1)));
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
        assert_eq!(t.request(), (None, None));
        let s = t.start();
        t.finish(s, || Kind::Op(fields("mxm", 1, 1)));

        t.set_request(Some(42), None);
        assert_eq!(t.request(), (Some(42), None));
        for _ in 0..2 {
            let s = t.start();
            t.finish(s, || Kind::Op(fields("mxv", 1, 1)));
        }
        t.set_request(Some(0), None); // id 0 is a real id, distinct from "none"
        let s = t.start();
        t.finish(s, || Kind::Op(fields("vxm", 1, 1)));
        t.set_request(None, None);
        assert_eq!(t.request(), (None, None));
        let s = t.start();
        t.finish(s, || Kind::Op(fields("mxm", 1, 1)));

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
        let store = tree::store();
        let ctx = store.begin_root("test");
        t.set_request(None, Some(ctx));
        assert_eq!(t.request(), (None, Some(ctx)));
        let s = t.start();
        t.finish(s, || Kind::Op(fields("mxv", 3, 2)));
        t.set_request(None, None);
        tree::finish_request(ctx);
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
        let store = tree::store();
        let ctx = store.begin_root("lvl-test");
        t.set_request(None, Some(ctx));
        let s = t.start();
        t.finish(s, || {
            Kind::Level(LevelFields {
                algo: "bfs",
                level: 3,
                dir: "pull",
                rep: "bitmap",
                frontier_nnz: 120,
                nnz_out: 80,
                push_edges: 4000,
                pull_edges: 900,
                pull_ready: true,
                device: Some(DeviceFields {
                    dir: "push",
                    price_push_ns: 7,
                    price_pull_ns: 9,
                }),
            })
        });
        t.set_request(None, None);
        tree::finish_request(ctx);
        let trace = store.get(ctx.trace_id).expect("trace completed");
        let sp = trace
            .spans
            .iter()
            .find(|sp| sp.name == "level.bfs")
            .expect("level span recorded");
        for (key, value) in [
            ("dir", "pull"),
            ("rep", "bitmap"),
            ("level", "3"),
            ("push_edges", "4000"),
            ("pull_edges", "900"),
            ("pull_ready", "true"),
            ("device", "push"),
            ("price_push_ns", "7"),
            ("price_pull_ns", "9"),
        ] {
            assert!(sp.attrs.iter().any(|(k, v)| k == key && v == value));
        }
        let rep = t.report(Vec::new());
        assert_eq!(rep.op("level").unwrap().calls, 1);
        assert_eq!(
            rep.spans[0].fields.op_label,
            "bfs dir=pull rep=bitmap push_edges=4000 pull_edges=900 pull_ready=true \
             device=push price_push_ns=7 price_pull_ns=9"
        );
        assert_eq!(rep.spans[0].fields.dims, "level=3");
    }

    #[test]
    fn clear_resets_everything() {
        let t = Tracer::with_mode("test", TraceMode::Summary);
        let s = t.start();
        t.finish(s, || Kind::Op(fields("build", 3, 3)));
        assert_eq!(t.total_spans(), 1);
        t.clear();
        assert_eq!(t.total_spans(), 0);
        assert!(t.report(Vec::new()).ops.is_empty());
    }

    #[test]
    fn set_mode_toggles_recording() {
        let mut t = Tracer::with_mode("test", TraceMode::Off);
        let s = t.start();
        t.finish(s, || Kind::Op(fields("mxm", 1, 1)));
        assert_eq!(t.total_spans(), 0);
        t.set_mode(TraceMode::Summary);
        let s = t.start();
        t.finish(s, || Kind::Op(fields("mxm", 1, 1)));
        assert_eq!(t.total_spans(), 1);
    }

    #[test]
    fn the_record_bit_records_while_off_and_every_finish_is_dispatched() {
        let t = Tracer::with_mode("test", TraceMode::Off);
        let s = t.start();
        t.finish(s, || Kind::Op(fields("mxm", 1, 1)));
        t.set_request(Some(9), None);
        t.set_record(true);
        for _ in 0..2 {
            let s = t.start();
            t.finish(s, || Kind::Op(fields("mxv", 2, 1)));
        }
        t.set_request(None, None);
        t.set_record(false);
        let s = t.start();
        t.finish(s, || panic!("no sink keeps this span"));
        assert_eq!(t.dispatched_ops(), 4);
        let rep = t.report(Vec::new());
        assert_eq!(rep.total_spans, 2, "only the recorded request's spans");
        let kept: Vec<(u64, &str, Option<u64>)> = rep
            .spans
            .iter()
            .map(|sp| (sp.seq, sp.fields.op, sp.request_id))
            .collect();
        assert_eq!(kept, [(0, "mxv", Some(9)), (1, "mxv", Some(9))]);
        t.clear();
        assert_eq!(
            t.dispatched_ops(),
            4,
            "clear drops recordings, not the count"
        );
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
