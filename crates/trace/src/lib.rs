#![warn(missing_docs)]

//! # gbtl-trace — the one observability crate of GBTL-RS
//!
//! "Where did this request's time go" has one answer here: every layer
//! that times something — a `Context` dispatching a GraphBLAS op, a
//! traversal finishing a level, the serving pool's window / queue / execute
//! / serialize stages, the shard router's forward and scatter hops — hands
//! one finished interval to **one emit point**, [`emit`]:
//! `(scope, t0_ns, t1_ns, kind)`, both ends read once from the one
//! process clock ([`gbtl_util::time::now_ns`]). Everything else is a sink
//! the emit point calls, and a sink renders an attribute to a string only
//! if it keeps the span:
//!
//! * **the op ring** ([`Tracer`], one per `Context`) — the most recent
//!   [`DEFAULT_RING_CAPACITY`] op and level spans plus exact per-op
//!   aggregates, snapshot as a [`TraceReport`] and rendered as a table or
//!   JSON lines by [`report`]. Records when the context's [`TraceMode`]
//!   (`GBTL_TRACE=off|summary|json`, default off) is on, or while its
//!   request stamp carries the record bit ([`Tracer::set_record`]). Beside
//!   the ring, every finished op and level is counted whatever the mode
//!   ([`Tracer::dispatched_ops`]).
//! * **the span tree** ([`tree`]) — the intervals of a *sampled* request
//!   (`GBTL_XRAY_SAMPLE=N`, or `"xray":true` on the request line), parented
//!   from the front-end's root down to kernel ops, kept per trace id in a
//!   bounded process-global store and exported as Chrome trace-event JSON
//!   ([`chrome`]). Keeps whatever is emitted under a [`TraceContext`].
//! * **the metrics registry** ([`metrics`]) — the
//!   `gbtl_stage_latency_us` histograms, fed the same two stamps as the
//!   stage's span; beside them the counters, gauges, slow-query log and
//!   both expositions the serving layer reads out.
//!
//! With tracing off and the request neither sampled nor recorded an op hook
//! is one branch, two relaxed loads and one relaxed add: no clock
//! read, no allocation, no lock.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod report;
mod ring;
pub mod tree;

use std::fmt;

pub use metrics::Stage;
pub use ring::{
    short_type_name, DeviceFields, LevelFields, OpSummary, Section, SpanFields, SpanRecord,
    SpanStart, TraceReport, Tracer, DEFAULT_RING_CAPACITY,
};
pub use tree::{begin_request, finish_request, TraceContext};

/// What the tracer records and how reporters should render it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing (the default); hooks only count the op.
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

/// A typed span attribute value. Call sites pass these by value or borrow;
/// only a sink that keeps the span turns one into a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attr<'a> {
    /// A count, size, index or id.
    U64(u64),
    /// A flag.
    Bool(bool),
    /// A name or label.
    Str(&'a str),
}

impl fmt::Display for Attr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attr::U64(v) => v.fmt(f),
            Attr::Bool(v) => v.fmt(f),
            Attr::Str(v) => f.write_str(v),
        }
    }
}

/// What a finished interval was, with its typed attributes.
#[derive(Debug, Clone)]
pub enum Kind<'a> {
    /// A dispatched GraphBLAS op (`op.<name>` in a span tree).
    Op(SpanFields),
    /// One traversal level with the direction decision it ran under and
    /// the inputs of that decision (`level.<algo>` in a span tree).
    Level(LevelFields),
    /// A serving-layer stage: its layer-qualified name (`pool.queue`,
    /// `router.forward`, …) and attributes.
    Stage(&'a str, &'a [(&'a str, Attr<'a>)]),
}

/// Which sinks a finished interval reaches. The default reaches none.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope<'a> {
    /// Span-tree sink: the sampled request's trace and the parent to hang
    /// the span from (`None`: the request was not sampled).
    pub tree: Option<TraceContext>,
    /// The span id to record under, when children recorded *during* the
    /// interval already named it as their parent
    /// ([`tree::XrayStore::next_span_id`]); 0 allocates one.
    pub span_id: u64,
    /// Histogram sink: the stage-latency series the duration lands in.
    pub stage: Option<Stage<'a>>,
    /// Op-ring sink: the dispatching `Context`'s tracer (its ring keeps
    /// ops and levels while its mode records).
    pub tracer: Option<&'a Tracer>,
}

/// **The emit point**: one finished interval `[t0_ns, t1_ns]` on the
/// [`gbtl_util::time::now_ns`] clock, offered to each sink `scope` names.
pub fn emit(scope: Scope<'_>, t0_ns: u64, t1_ns: u64, kind: Kind<'_>) {
    use Attr::{Bool, Str, U64};
    if let Some(ctx) = scope.tree {
        let keep = |name: &str, attrs: &[(&str, Attr<'_>)]| {
            tree::store().add_span_with_id(scope.span_id, ctx, name, t0_ns, t1_ns, attrs);
        };
        let backend = scope.tracer.map_or("", Tracer::backend);
        match &kind {
            Kind::Op(f) => keep(
                &format!("op.{}", f.op),
                &[
                    ("backend", Str(backend)),
                    ("dims", Str(&f.dims)),
                    ("nnz_in", U64(f.nnz_in)),
                    ("nnz_out", U64(f.nnz_out)),
                ],
            ),
            Kind::Level(l) => {
                let mut attrs = vec![
                    ("backend", Str(backend)),
                    ("level", U64(l.level)),
                    ("dir", Str(l.dir)),
                    ("rep", Str(l.rep)),
                    ("frontier_nnz", U64(l.frontier_nnz)),
                    ("push_edges", U64(l.push_edges)),
                    ("pull_edges", U64(l.pull_edges)),
                    ("pull_ready", Bool(l.pull_ready)),
                ];
                if let Some(d) = l.device {
                    attrs.extend([
                        ("device", Str(d.dir)),
                        ("price_push_ns", U64(d.price_push_ns)),
                        ("price_pull_ns", U64(d.price_pull_ns)),
                    ]);
                }
                keep(&format!("level.{}", l.algo), &attrs)
            }
            Kind::Stage(name, attrs) => keep(name, attrs),
        }
    }
    let duration_ns = t1_ns.saturating_sub(t0_ns);
    if let Some(stage) = scope.stage {
        stage.observe(duration_ns / 1_000);
    }
    if let Some(tracer) = scope.tracer {
        tracer.keep(t0_ns, duration_ns, kind);
    }
}
