//! The newline-delimited JSON wire protocol.
//!
//! One request object per line in, one response object per line out, in
//! request order per connection. Parsing rides on the shared reader in
//! [`gbtl_util::json`] (the same implementation the trace reporters verify
//! against), through [`json::read_object`]: a line is read once and no
//! tree is built. Responses are emitted by hand with
//! [`gbtl_util::json::escape`].
//!
//! Requests (`"op"` selects the kind):
//!
//! ```text
//! {"op":"ping"}
//! {"op":"list"}
//! {"op":"stats"}
//! {"op":"metrics"}                              # histograms + slow queries + Prometheus text
//! {"op":"shutdown"}
//! {"op":"sleep","ms":50}                        # diagnostic: occupies a worker
//! {"op":"load","name":"r10","spec":"rmat:10:8:7"}
//! {"op":"query","graph":"r10","algo":"bfs","backend":"par","source":0,
//!  "id":7,"full":false,"trace":false,"deadline_ms":500}
//! {"op":"query_all","algo":"bfs","backend":"par","source":0}   # every resident graph
//! {"op":"snapshot","graph":"r10"}               # omit "graph" to snapshot all
//! {"op":"restore","graph":"r10"}                # omit "graph" to restore all
//! {"op":"xray"}                                 # list recent completed traces
//! {"op":"xray","trace_id":7}                    # one span tree + Chrome trace-event export
//! ```
//!
//! Any request line may additionally carry `"xray":true` to force-sample it
//! for causal tracing (see `gbtl_trace::tree`). The marker is read by the connection
//! front-ends before parsing and ignored here — it never changes what a
//! request computes, only whether a span tree is recorded for it.
//!
//! Every response carries `"ok"`; failures add `"code"` (`bad_request`,
//! `not_found`, `overloaded`, `deadline`, `shutting_down`, `internal`) and a
//! human-readable `"error"`.

use gbtl_core::Direction;
use gbtl_util::json::{self, escape, Field};

/// Which algorithm a query runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// BFS levels from `source`.
    Bfs,
    /// Bellman–Ford SSSP from `source` over the derived `u32` weights.
    Sssp,
    /// Damped PageRank.
    Pagerank,
    /// Triangle count.
    TriangleCount,
    /// Connected components.
    Cc,
    /// Maximal independent set (Luby, seeded).
    Mis,
}

impl Algo {
    /// All algorithms, in the order the tests exercise them.
    pub const ALL: [Algo; 6] = [
        Algo::Bfs,
        Algo::Sssp,
        Algo::Pagerank,
        Algo::TriangleCount,
        Algo::Cc,
        Algo::Mis,
    ];

    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Sssp => "sssp",
            Algo::Pagerank => "pagerank",
            Algo::TriangleCount => "triangle_count",
            Algo::Cc => "cc",
            Algo::Mis => "mis",
        }
    }

    /// Parse the wire spelling.
    pub fn parse(s: &str) -> Result<Algo, String> {
        match s {
            "bfs" => Ok(Algo::Bfs),
            "sssp" => Ok(Algo::Sssp),
            "pagerank" | "pr" => Ok(Algo::Pagerank),
            "triangle_count" | "tc" => Ok(Algo::TriangleCount),
            "cc" => Ok(Algo::Cc),
            "mis" => Ok(Algo::Mis),
            other => Err(format!(
                "unknown algo {other:?} (expected bfs|sssp|pagerank|triangle_count|cc|mis)"
            )),
        }
    }

    /// Whether the algorithm is a traversal from `source` — the ones that
    /// read `source` and `direction` and that fusion can batch.
    pub(crate) fn takes_source(self) -> bool {
        matches!(self, Algo::Bfs | Algo::Sssp)
    }
}

/// Which backend a query runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// Sequential CPU reference.
    Seq,
    /// Work-stealing parallel CPU backend (the default).
    #[default]
    Par,
    /// Simulated-CUDA backend.
    Cuda,
}

impl BackendChoice {
    /// All backends, in declaration order.
    pub const ALL: [BackendChoice; 3] =
        [BackendChoice::Seq, BackendChoice::Par, BackendChoice::Cuda];

    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendChoice::Seq => "seq",
            BackendChoice::Par => "par",
            BackendChoice::Cuda => "cuda",
        }
    }

    /// Parse the wire spelling.
    pub fn parse(s: &str) -> Result<BackendChoice, String> {
        match s {
            "seq" | "sequential" => Ok(BackendChoice::Seq),
            "par" | "parallel" => Ok(BackendChoice::Par),
            "cuda" | "cuda-sim" | "gpu" => Ok(BackendChoice::Cuda),
            other => Err(format!("unknown backend {other:?} (expected seq|par|cuda)")),
        }
    }
}

/// A parsed `query` request.
#[derive(Debug, Clone)]
pub struct QueryParams {
    /// Client-supplied correlation id, echoed back verbatim.
    pub id: Option<u64>,
    /// Catalog graph name.
    pub graph: String,
    /// Algorithm to run.
    pub algo: Algo,
    /// Backend to run it on.
    pub backend: BackendChoice,
    /// Source vertex (bfs/sssp; ignored elsewhere).
    pub source: usize,
    /// PageRank damping factor.
    pub damping: f64,
    /// PageRank iteration cap.
    pub max_iters: usize,
    /// MIS seed.
    pub seed: u64,
    /// Traversal direction override for bfs/sssp; `Auto` (the default when
    /// the request omits `"direction"`) is the per-level rule. A device
    /// charges a fused batch's level the cheaper direction, so only an
    /// `Auto` query fuses: a forced one runs solo.
    pub direction: Direction,
    /// Include the full per-vertex result, not just aggregates + checksum.
    pub full: bool,
    /// Include the request's op spans in the response.
    pub trace: bool,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

impl QueryParams {
    /// The canonical parameter string: the algorithm-relevant knobs (plus
    /// backend and output shape) in a fixed order. Combined with the graph
    /// name and epoch this is the result-cache key, so two requests that
    /// must produce identical payloads — and only those — collide.
    pub fn cache_params(&self) -> String {
        // room for a typical key
        let mut s = String::with_capacity(80);
        self.push_cache_params(&mut s);
        s
    }

    /// This query's result-cache key on `graph` at `epoch`: the bytes of
    /// [`cache_key`](crate::cache::cache_key) of its
    /// [`QueryParams::cache_params`], written into one buffer.
    pub fn cache_key(&self, graph: &str, epoch: u64) -> String {
        let mut key = String::with_capacity(graph.len() + 22 + 80);
        crate::cache::push_key_prefix(&mut key, graph, epoch);
        self.push_cache_params(&mut key);
        key
    }

    /// Append [`QueryParams::cache_params`] to `s`.
    fn push_cache_params(&self, s: &mut String) {
        use std::fmt::Write;
        s.push_str("algo=");
        s.push_str(self.algo.as_str());
        s.push_str(";backend=");
        s.push_str(self.backend.as_str());
        let _ = match self.algo {
            Algo::Bfs | Algo::Sssp => write!(s, ";source={}", self.source),
            Algo::Pagerank => write!(s, ";damping={};max_iters={}", self.damping, self.max_iters),
            Algo::Mis => write!(s, ";seed={}", self.seed),
            Algo::TriangleCount | Algo::Cc => Ok(()),
        };
        // auto is the default and bit-identical to any forced mode, but a
        // *forced* direction must key separately: it pins which kernels run,
        // and trace-carrying consumers may observe the difference
        if self.algo.takes_source() && self.direction != Direction::Auto {
            s.push_str(";direction=");
            s.push_str(self.direction.as_str());
        }
        if self.full {
            s.push_str(";full");
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness check, answered inline.
    Ping,
    /// List resident graphs, answered inline.
    List,
    /// Server statistics, answered inline. The response is one flat JSON
    /// object; every field is either **cumulative** (monotone since server
    /// start) or **point-in-time** (a gauge read at response time), never a
    /// mix:
    ///
    /// * `uptime_ms` — point-in-time: wall clock since start.
    /// * `workers`, `par_threads`, `queue_capacity` — configuration constants.
    /// * `queue_depth` — point-in-time: jobs waiting right now.
    /// * `graphs` — point-in-time: resident catalog entries.
    /// * `requests.*` (`connections`, `received`, `completed`, `bad`,
    ///   `rejected_overloaded`, `rejected_shutdown`, `deadline_expired`) —
    ///   cumulative counters. `completed` counts every request answered
    ///   with `ok:true`, cache hits included, so
    ///   `completed = cache.hits + (queries executed) + (non-query ops)`.
    /// * `cache.capacity` — configuration; `cache.entries` — point-in-time
    ///   occupancy; `cache.hits` / `cache.misses` — cumulative;
    ///   `cache.hit_rate` — cumulative ratio `hits / (hits + misses)`
    ///   (lifetime, **not** derived from current occupancy).
    /// * `backend_ops.*`, `pool.*`, `gpu.*` — cumulative engine counters.
    /// * `algos[]` — cumulative per-algorithm execute-latency aggregates
    ///   (count / mean / max of worker execution time, cache misses only).
    Stats,
    /// Metrics snapshot, answered inline: the registry's counters, gauges,
    /// and per-(algo, backend, cache) latency histograms as JSON, the
    /// bounded slow-query log, and a Prometheus-style text exposition.
    Metrics,
    /// Begin graceful shutdown.
    Shutdown,
    /// Diagnostic: hold a worker for `ms` milliseconds (goes through the
    /// queue like a query; used to exercise admission control).
    Sleep {
        /// How long the worker sleeps.
        ms: u64,
        /// Correlation id.
        id: Option<u64>,
        /// Per-request deadline override, milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Load (or replace) a named graph from a spec string.
    Load {
        /// Catalog name.
        name: String,
        /// Compact spec string (see [`crate::catalog::GraphSpec::parse`]).
        spec: String,
    },
    /// Run an algorithm on a resident graph.
    Query(QueryParams),
    /// Run one algorithm over **every** resident graph (scatter-gather):
    /// the server fans one query per graph out to the owning worker pool
    /// (or shard, behind gbtl-shard's router), gathers until the deadline,
    /// and answers with per-graph results plus a `partial` flag listing
    /// whatever missed the deadline. `params.graph` is unused.
    QueryAll(QueryParams),
    /// Persist resident graphs as versioned `.gbsnap` files under the
    /// configured snapshot directory (`GBTL_SNAPSHOT_DIR`). `graph:None`
    /// snapshots every resident graph.
    Snapshot {
        /// Which graph; `None` = all resident graphs.
        graph: Option<String>,
        /// Correlation id.
        id: Option<u64>,
    },
    /// Load graphs back from `.gbsnap` files (bulk binary read + transpose
    /// prewarm — the milliseconds-restart path). `graph:None` restores
    /// every snapshot file in the directory.
    Restore {
        /// Which graph; `None` = every `.gbsnap` in the directory.
        graph: Option<String>,
        /// Correlation id.
        id: Option<u64>,
    },
    /// Fetch completed x-ray span trees, answered inline from the
    /// process-global store. With `trace_id`: that trace's span tree plus
    /// its Chrome trace-event export. Without: summaries of the most
    /// recently completed traces. Answered identically by a plain pool and
    /// by gbtl-shard's router (the store is process-wide), so a sharded
    /// deployment serves one coherent view.
    Xray {
        /// Which trace; `None` = list recent completions.
        trace_id: Option<u64>,
        /// Correlation id.
        id: Option<u64>,
    },
}

/// The fields the request grammar reads, each as its first occurrence on
/// the line — the one [`json::Value::get`] would find. Any other field is
/// skipped.
#[derive(Default)]
struct Fields<'a> {
    op: Option<Field<'a>>,
    id: Option<Field<'a>>,
    ms: Option<Field<'a>>,
    deadline_ms: Option<Field<'a>>,
    name: Option<Field<'a>>,
    graph: Option<Field<'a>>,
    spec: Option<Field<'a>>,
    algo: Option<Field<'a>>,
    backend: Option<Field<'a>>,
    source: Option<Field<'a>>,
    damping: Option<Field<'a>>,
    max_iters: Option<Field<'a>>,
    seed: Option<Field<'a>>,
    direction: Option<Field<'a>>,
    full: Option<Field<'a>>,
    trace: Option<Field<'a>>,
    trace_id: Option<Field<'a>>,
}

impl<'a> Fields<'a> {
    /// Fill the slots from `line`, strings borrowed from it where they
    /// hold no escape. A document that is not an object fills none.
    fn read(&mut self, line: &'a str) -> Result<(), String> {
        json::read_object(line, |key, value| {
            if let Some(slot @ None) = self.slot(&key) {
                *slot = Some(value);
            }
        })
        .map_err(|e| format!("bad JSON: {e}"))?;
        Ok(())
    }

    fn slot(&mut self, key: &str) -> Option<&mut Option<Field<'a>>> {
        Some(match key {
            "op" => &mut self.op,
            "id" => &mut self.id,
            "ms" => &mut self.ms,
            "deadline_ms" => &mut self.deadline_ms,
            "name" => &mut self.name,
            "graph" => &mut self.graph,
            "spec" => &mut self.spec,
            "algo" => &mut self.algo,
            "backend" => &mut self.backend,
            "source" => &mut self.source,
            "damping" => &mut self.damping,
            "max_iters" => &mut self.max_iters,
            "seed" => &mut self.seed,
            "direction" => &mut self.direction,
            "full" => &mut self.full,
            "trace" => &mut self.trace,
            "trace_id" => &mut self.trace_id,
            _ => return None,
        })
    }
}

/// Parse one request line. The line is read once, into the fields the
/// grammar knows; only the strings a [`Request`] keeps are copied.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut f = Fields::default();
    f.read(line)?;
    let op =
        f.op.as_ref()
            .and_then(Field::as_str)
            .ok_or("missing \"op\" field")?;
    match op {
        "ping" => Ok(Request::Ping),
        "list" => Ok(Request::List),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "sleep" => Ok(Request::Sleep {
            ms: field(&f.ms, op, "ms", UINT, Field::as_u64)?.ok_or("sleep: missing \"ms\"")?,
            id: field(&f.id, op, "id", UINT, Field::as_u64)?,
            deadline_ms: field(&f.deadline_ms, op, "deadline_ms", UINT, Field::as_u64)?,
        }),
        "load" => Ok(Request::Load {
            // "graph" is accepted as an alias so load and query lines can
            // name the graph with the same field
            name: field(&f.name, op, "name", STR, Field::as_str)?
                .or(field(&f.graph, op, "graph", STR, Field::as_str)?)
                .ok_or("load: missing \"name\"")?
                .to_string(),
            spec: field(&f.spec, op, "spec", STR, Field::as_str)?
                .ok_or("load: missing \"spec\"")?
                .to_string(),
        }),
        "query" => {
            let graph = field(&f.graph, op, "graph", STR, Field::as_str)?
                .ok_or("query: missing \"graph\"")?
                .to_string();
            Ok(Request::Query(parse_query_params(&f, graph)?))
        }
        // graph-less: the server substitutes every resident graph name
        "query_all" => Ok(Request::QueryAll(parse_query_params(&f, String::new())?)),
        "snapshot" => Ok(Request::Snapshot {
            graph: field(&f.graph, op, "graph", STR, Field::as_str)?.map(str::to_string),
            id: field(&f.id, op, "id", UINT, Field::as_u64)?,
        }),
        "restore" => Ok(Request::Restore {
            graph: field(&f.graph, op, "graph", STR, Field::as_str)?.map(str::to_string),
            id: field(&f.id, op, "id", UINT, Field::as_u64)?,
        }),
        "xray" => Ok(Request::Xray {
            trace_id: field(&f.trace_id, op, "trace_id", UINT, Field::as_u64)?,
            id: field(&f.id, op, "id", UINT, Field::as_u64)?,
        }),
        other => Err(format!("unknown op {other:?}")),
    }
}

const STR: &str = "a string";
const UINT: &str = "a non-negative integer";
const BOOL: &str = "true or false";

/// An optional field of `op`'s request object, read from its `slot`:
/// `None` when absent, its value when `read` accepts it, and an error
/// naming the field when it is present with the wrong type or range —
/// never a silent default.
fn field<'v, 'a, T>(
    slot: &'v Option<Field<'a>>,
    op: &str,
    name: &str,
    expected: &str,
    read: impl FnOnce(&'v Field<'a>) -> Option<T>,
) -> Result<Option<T>, String> {
    match slot {
        None => Ok(None),
        Some(x) => read(x)
            .map(Some)
            .ok_or_else(|| format!("{op}: \"{name}\" must be {expected}")),
    }
}

/// The shared `query` / `query_all` parameter grammar (everything but the
/// graph name, which `query` requires and `query_all` forbids meaning to).
/// An absent field takes its default; a present one must be well-typed.
fn parse_query_params(f: &Fields, graph: String) -> Result<QueryParams, String> {
    let q = "query";
    let algo = field(&f.algo, q, "algo", STR, Field::as_str)?.ok_or("query: missing \"algo\"")?;
    let algo = Algo::parse(algo)?;
    let backend = match field(&f.backend, q, "backend", STR, Field::as_str)? {
        Some(b) => BackendChoice::parse(b)?,
        None => BackendChoice::default(),
    };
    let damping = field(
        &f.damping,
        q,
        "damping",
        "a number in [0, 1)",
        Field::as_f64,
    )?
    .unwrap_or(0.85);
    if !(0.0..1.0).contains(&damping) {
        return Err(format!("query: damping {damping} outside [0, 1)"));
    }
    let direction = match field(&f.direction, q, "direction", STR, Field::as_str)? {
        Some(d) => Direction::parse(d).ok_or_else(|| {
            format!("query: unknown \"direction\" {d:?} (expected push|pull|auto)")
        })?,
        None => Direction::Auto,
    };
    Ok(QueryParams {
        id: field(&f.id, q, "id", UINT, Field::as_u64)?,
        graph,
        algo,
        backend,
        source: field(&f.source, q, "source", UINT, Field::as_usize)?.unwrap_or(0),
        damping,
        max_iters: field(&f.max_iters, q, "max_iters", UINT, Field::as_usize)?.unwrap_or(100),
        seed: field(&f.seed, q, "seed", UINT, Field::as_u64)?.unwrap_or(7),
        direction,
        full: field(&f.full, q, "full", BOOL, Field::as_bool)?.unwrap_or(false),
        trace: field(&f.trace, q, "trace", BOOL, Field::as_bool)?.unwrap_or(false),
        deadline_ms: field(&f.deadline_ms, q, "deadline_ms", UINT, Field::as_u64)?,
    })
}

/// Render an error response line (no trailing newline).
pub fn error_response(code: &str, msg: &str, id: Option<u64>) -> String {
    let id_part = id.map(|i| format!("\"id\":{i},")).unwrap_or_default();
    format!(
        "{{\"ok\":false,{id_part}\"code\":\"{}\",\"error\":\"{}\"}}",
        escape(code),
        escape(msg)
    )
}

/// Render the inline response for [`Request::Xray`], answered from the
/// process-global span-tree store. Shared by the worker pool and the shard
/// router so both answer the verb with identical wire shapes.
pub fn xray_response(trace_id: Option<u64>, id: Option<u64>) -> String {
    let id_part = id.map(|i| format!("\"id\":{i},")).unwrap_or_default();
    let store = gbtl_trace::tree::store();
    match trace_id {
        Some(t) => match store.get(t) {
            Some(trace) => format!(
                "{{\"ok\":true,{id_part}\"trace\":{},\"chrome\":{}}}",
                trace.to_json(),
                gbtl_trace::chrome::trace_to_chrome(&trace)
            ),
            None => error_response(
                "not_found",
                &format!("no completed trace {t} (evicted, still open, or never sampled)"),
                id,
            ),
        },
        None => {
            let mut s = format!(
                "{{\"ok\":true,{id_part}\"enabled\":{},\"sample_every\":{},\
                 \"completed\":{},\"recent\":[",
                store.enabled(),
                store.sample_every(),
                store.completed()
            );
            for (i, summary) in store.recent(32).iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&summary.to_json());
            }
            s.push_str("]}");
            s
        }
    }
}

/// The error for a request line that exceeded the configured length bound
/// (`GBTL_SERVE_MAX_LINE`) before a newline arrived. Rendered here — not in
/// the front-ends — so the wire bytes for this fault are identical whether
/// the threaded listener or the evented loop detected it. No `id`: the line
/// was never parsed, so any correlation id inside it is unreadable.
pub fn oversized_response(max_line: usize) -> String {
    error_response(
        "bad_request",
        &format!("request line exceeds {max_line} bytes (GBTL_SERVE_MAX_LINE)"),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_variant_in_declaration_order() {
        // the pool's series table is sized by these lists and indexed by
        // discriminant, so each variant must sit at its own index
        for (i, a) in Algo::ALL.into_iter().enumerate() {
            assert_eq!(a as usize, i, "{a:?}");
        }
        for (i, b) in BackendChoice::ALL.into_iter().enumerate() {
            assert_eq!(b as usize, i, "{b:?}");
        }
    }

    #[test]
    fn parses_every_op() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"list"}"#),
            Ok(Request::List)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"sleep","ms":5,"id":2}"#),
            Ok(Request::Sleep {
                ms: 5,
                id: Some(2),
                ..
            })
        ));
        match parse_request(r#"{"op":"load","name":"k","spec":"karate"}"#).unwrap() {
            Request::Load { name, spec } => {
                assert_eq!(name, "k");
                assert_eq!(spec, "karate");
            }
            other => panic!("{other:?}"),
        }
        match parse_request(r#"{"op":"snapshot","graph":"k","id":4}"#).unwrap() {
            Request::Snapshot { graph, id } => {
                assert_eq!(graph.as_deref(), Some("k"));
                assert_eq!(id, Some(4));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"op":"snapshot"}"#),
            Ok(Request::Snapshot {
                graph: None,
                id: None
            })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"restore","graph":"k"}"#),
            Ok(Request::Restore { graph: Some(_), .. })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"xray"}"#),
            Ok(Request::Xray {
                trace_id: None,
                id: None
            })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"xray","trace_id":5,"id":2}"#),
            Ok(Request::Xray {
                trace_id: Some(5),
                id: Some(2)
            })
        ));
        match parse_request(r#"{"op":"query_all","algo":"bfs","source":2,"id":9}"#).unwrap() {
            Request::QueryAll(p) => {
                assert_eq!(p.graph, "", "query_all carries no graph");
                assert_eq!(p.algo, Algo::Bfs);
                assert_eq!(p.source, 2);
                assert_eq!(p.id, Some(9));
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_request(r#"{"op":"query_all"}"#).is_err(),
            "algo required"
        );
    }

    #[test]
    fn query_defaults_and_knobs() {
        let q = match parse_request(r#"{"op":"query","graph":"g","algo":"bfs"}"#).unwrap() {
            Request::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q.backend, BackendChoice::Par);
        assert_eq!(q.source, 0);
        assert_eq!(q.direction, Direction::Auto, "direction defaults to auto");
        assert!(!q.full && !q.trace);
        assert_eq!(q.id, None);

        let q = match parse_request(r#"{"op":"query","graph":"g","algo":"bfs","direction":"pull"}"#)
            .unwrap()
        {
            Request::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q.direction, Direction::Pull);

        let q = match parse_request(
            r#"{"op":"query","graph":"g","algo":"pagerank","backend":"cuda",
               "damping":0.9,"max_iters":30,"id":9,"full":true,"trace":true,"deadline_ms":250}"#,
        )
        .unwrap()
        {
            Request::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q.backend, BackendChoice::Cuda);
        assert_eq!(q.damping, 0.9);
        assert_eq!(q.max_iters, 30);
        assert_eq!(q.id, Some(9));
        assert!(q.full && q.trace);
        assert_eq!(q.deadline_ms, Some(250));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"no_op":1}"#).is_err());
        assert!(parse_request(r#"{"op":"warp"}"#).is_err());
        assert!(parse_request(r#"{"op":"query","graph":"g","algo":"mystery"}"#).is_err());
        assert!(
            parse_request(r#"{"op":"query","graph":"g","algo":"bfs","backend":"abacus"}"#).is_err()
        );
        assert!(
            parse_request(r#"{"op":"query","graph":"g","algo":"pagerank","damping":1.5}"#).is_err()
        );
        assert!(parse_request(r#"{"op":"load","name":"k"}"#).is_err());
        assert!(parse_request(r#"{"op":"sleep"}"#).is_err());
        let e = parse_request(r#"{"op":"query","graph":"g","algo":"bfs","direction":"sideways"}"#)
            .unwrap_err();
        assert!(
            e.contains("direction") && e.contains("push|pull|auto"),
            "bad direction names the knob and the accepted values: {e}"
        );
        // a field present with the wrong type or range is an error naming
        // it, never its default
        for (body, name) in [
            (r#""algo":"bfs","source":-1"#, "source"),
            (r#""algo":"bfs","source":"33""#, "source"),
            (r#""algo":"bfs","source":2.5"#, "source"),
            (r#""algo":"pagerank","damping":"0.99""#, "damping"),
            (r#""algo":"pagerank","max_iters":-3"#, "max_iters"),
            (r#""algo":"mis","seed":"7""#, "seed"),
            (r#""algo":"bfs","full":1"#, "full"),
            (r#""algo":"bfs","trace":"yes""#, "trace"),
            (r#""algo":"bfs","deadline_ms":1.5"#, "deadline_ms"),
            (r#""algo":"bfs","id":"9""#, "id"),
            (r#""algo":"bfs","id":null"#, "id"),
            (r#""algo":"bfs","backend":3"#, "backend"),
            (r#""algo":"bfs","direction":true"#, "direction"),
            (r#""algo":7"#, "algo"),
        ] {
            let line = format!(r#"{{"op":"query","graph":"g",{body}}}"#);
            let e = parse_request(&line).unwrap_err();
            assert!(e.contains(&format!("\"{name}\"")), "{line}: {e}");
        }
        for line in [
            r#"{"op":"query","graph":5,"algo":"bfs"}"#,
            r#"{"op":"sleep","ms":"5"}"#,
            r#"{"op":"snapshot","graph":1}"#,
            r#"{"op":"xray","trace_id":-1}"#,
        ] {
            assert!(parse_request(line).is_err(), "{line}");
        }
    }

    #[test]
    fn cache_params_cover_relevant_knobs_only() {
        let mut q = QueryParams {
            id: Some(1),
            graph: "g".into(),
            algo: Algo::Bfs,
            backend: BackendChoice::Seq,
            source: 3,
            damping: 0.85,
            max_iters: 100,
            seed: 7,
            direction: Direction::Auto,
            full: false,
            trace: false,
            deadline_ms: Some(100),
        };
        let key = q.cache_params();
        assert_eq!(key, "algo=bfs;backend=seq;source=3");
        // a forced direction keys separately; auto (the default) adds nothing
        q.direction = Direction::Pull;
        assert_eq!(
            q.cache_params(),
            "algo=bfs;backend=seq;source=3;direction=pull"
        );
        q.direction = Direction::Auto;
        // id / trace / deadline don't affect the key
        q.id = None;
        q.trace = true;
        q.deadline_ms = None;
        assert_eq!(q.cache_params(), key);
        // but backend, params, and output shape do
        q.backend = BackendChoice::Par;
        assert_ne!(q.cache_params(), key);
        q.backend = BackendChoice::Seq;
        q.full = true;
        assert_ne!(q.cache_params(), key);
        q.full = false;
        q.algo = Algo::Pagerank;
        assert_eq!(
            q.cache_params(),
            "algo=pagerank;backend=seq;damping=0.85;max_iters=100"
        );
        q.algo = Algo::Mis;
        assert_eq!(q.cache_params(), "algo=mis;backend=seq;seed=7");
        q.algo = Algo::TriangleCount;
        assert_eq!(q.cache_params(), "algo=triangle_count;backend=seq");
    }

    #[test]
    fn xray_responses_render_listing_fetch_and_miss() {
        let listing = gbtl_util::json::parse(&xray_response(None, Some(4))).unwrap();
        assert_eq!(listing.bool_field("ok"), Some(true));
        assert_eq!(listing.u64_field("id"), Some(4));
        assert!(listing.get("recent").unwrap().as_arr().is_some());
        assert!(listing.get("enabled").unwrap().as_bool().is_some());

        let miss = gbtl_util::json::parse(&xray_response(Some(u64::MAX), None)).unwrap();
        assert_eq!(miss.bool_field("ok"), Some(false));
        assert_eq!(miss.str_field("code"), Some("not_found"));

        // complete a real trace through the global store, then fetch it
        let ctx = gbtl_trace::tree::store().begin_root("test");
        let scope = gbtl_trace::Scope {
            tree: Some(ctx),
            ..Default::default()
        };
        gbtl_trace::emit(scope, 1, 2, gbtl_trace::Kind::Stage("pool.execute", &[]));
        gbtl_trace::finish_request(ctx);
        let hit = gbtl_util::json::parse(&xray_response(Some(ctx.trace_id), None)).unwrap();
        assert_eq!(hit.bool_field("ok"), Some(true));
        let trace = hit.get("trace").unwrap();
        assert_eq!(trace.u64_field("trace_id"), Some(ctx.trace_id));
        assert_eq!(trace.get("spans").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            hit.get("chrome").unwrap().as_arr().unwrap().len(),
            2,
            "chrome export carries one complete event per span"
        );
    }

    #[test]
    fn error_responses_are_valid_json() {
        let line = error_response("overloaded", "queue full (cap 4)", Some(3));
        let v = gbtl_util::json::parse(&line).unwrap();
        assert_eq!(v.bool_field("ok"), Some(false));
        assert_eq!(v.str_field("code"), Some("overloaded"));
        assert_eq!(v.u64_field("id"), Some(3));
        let v = gbtl_util::json::parse(&error_response("bad_request", "x\"y", None)).unwrap();
        assert_eq!(v.str_field("error"), Some("x\"y"));
        assert!(v.get("id").is_none());
    }
}
