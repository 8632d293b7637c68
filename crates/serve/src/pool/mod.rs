//! The compute side of the server — everything behind the
//! [`gbtl_net::Engine`] contract.
//!
//! [`EnginePool`] owns the graph catalog, the result cache, the bounded job
//! queue, the per-worker backend engines, the metrics registry, and every
//! cumulative counter. It implements [`gbtl_net::Engine`], so the two
//! connection front-ends — the blocking thread-per-connection listener and
//! the evented `poll(2)` loop, both in [`crate::server`] — drive the *same*
//! object through the *same* trait and produce bit-identical responses (the
//! integration tests prove it via the result checksums).
//!
//! What the contract maps to here:
//!
//! * [`Engine::submit`] is the old per-line dispatch: control ops (`ping`,
//!   `list`, `stats`, `metrics`, `load`, `shutdown`), cache hits, and every
//!   rejection (parse errors, `overloaded`, `shutting_down`) answer
//!   [`Submission::Inline`]; `query` misses and `sleep` push onto the
//!   bounded queue and answer [`Submission::Accepted`], with the worker
//!   pool invoking the [`Reply`] when done.
//! * Admission control is what keeps `submit` safe to call from the evented
//!   poller thread: a full queue rejects in O(1) instead of blocking.
//! * Deadlines are the pool's alone: jobs that expire while queued are
//!   answered with a `deadline` error by the worker that pops them (and
//!   counted in `deadline_expired`); a job already executing when its
//!   deadline passes completes and replies late, and both front-ends
//!   deliver that reply.
//! * [`Engine::drain`] closes the queue to new work, after which workers
//!   finish every admitted job and park; both front-ends watch
//!   [`Engine::is_draining`] to stop accepting connections.
//!
//! The module map: `queue` holds the one struct that carries a query
//! (`Member`), the job enum and the bounded queue; this file is admission —
//! `submit`, the fusion-window intercept, rejections; `worker` is execution
//! and completion (one path, solo and fused alike); `render` is every
//! response body the pool writes; `series` holds the per-query metric
//! handles both the inline cache hit and the worker observe.

mod queue;
mod render;
mod series;
mod worker;

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use gbtl_core::{Direction, TransposeCache};
use gbtl_fuse::{FuseQueue, PushOutcome};
use gbtl_net::{Engine as _, NetStats, Reply, Submission};
use gbtl_trace::metrics::{Counter, Registry, SlowLog};
use gbtl_util::json::escape;

pub use render::{
    mirror_net_gauges, net_stats_json, persistence_response, render_graph_item, ShardSnapshot,
};

use crate::cache::{cache_key, ResultCache};
use crate::catalog::{Catalog, GraphEntry, GraphSpec};
use crate::engine::Engine as QueryEngine;
use crate::protocol::{error_response, oversized_response, parse_request, xray_response, Request};
use crate::scatter::{scatter_query_all, ScatterTarget};
use crate::server::ServerConfig;
use crate::snapshot as snapfile;
use queue::{Job, JobQueue, Member, PushError};
use render::{render_list, render_metrics, render_stats};
use series::SeriesTable;
use worker::{render_and_record, worker_loop, SlowQuery};

/// Slow-query log retention, in entries.
const SLOW_LOG_CAPACITY: usize = 16;

/// The `ok:true` prefix every successful response starts with.
const OK_PREFIX: &str = "{\"ok\":true";

/// The completed-counter predicate, applied in one place for inline and
/// queued answers and for both front-ends.
fn count_if_ok(completed: &Counter, response: &str) {
    if response.starts_with(OK_PREFIX) {
        completed.inc();
    }
}

/// Cumulative server counters, held as registry handles: the hot path is a
/// relaxed atomic add, and the `stats` and `metrics` endpoints read the
/// exact same cells (so the two expositions can never disagree).
#[derive(Debug)]
pub(crate) struct ServerStats {
    pub(crate) connections: Arc<Counter>,
    pub(crate) connections_closed: Arc<Counter>,
    pub(crate) received: Arc<Counter>,
    pub(crate) completed: Arc<Counter>,
    pub(crate) bad_requests: Arc<Counter>,
    pub(crate) rejected_overloaded: Arc<Counter>,
    pub(crate) rejected_shutdown: Arc<Counter>,
    pub(crate) deadline_expired: Arc<Counter>,
    /// Execute steps that panicked and were contained (`pool::worker`).
    pub(crate) worker_panics: Arc<Counter>,
}

impl ServerStats {
    fn new(registry: &Registry) -> Self {
        let c = |name| registry.counter(name, &[]);
        ServerStats {
            connections: c("gbtl_connections_total"),
            connections_closed: c("gbtl_connections_closed_total"),
            received: c("gbtl_requests_received_total"),
            completed: c("gbtl_requests_completed_total"),
            bad_requests: c("gbtl_bad_requests_total"),
            rejected_overloaded: c("gbtl_rejected_overloaded_total"),
            rejected_shutdown: c("gbtl_rejected_shutdown_total"),
            deadline_expired: c("gbtl_deadline_expired_total"),
            worker_panics: c("gbtl_worker_panics_total"),
        }
    }
}

/// The compute back-end: catalog, cache, bounded queue, worker engines,
/// metrics. Implements [`gbtl_net::Engine`]; see the module docs for how
/// the contract maps onto these pieces. Always used behind an `Arc` —
/// worker threads and both front-ends share one instance.
#[derive(Debug)]
pub struct EnginePool {
    pub(crate) config: ServerConfig,
    catalog: Catalog,
    cache: ResultCache,
    /// One store shared by every engine and backend context; pre-warmed on
    /// graph load so the first pull-direction query never builds Aᵀ inline.
    transpose_cache: TransposeCache,
    queue: JobQueue,
    /// The query-fusion window (`Some` iff `config.fuse.enabled`): cache
    /// misses for fusable queries are held here briefly so compatible
    /// concurrent traversals run as one multi-source kernel.
    fuse: Option<FuseQueue<Member>>,
    registry: Registry,
    pub(crate) stats: ServerStats,
    /// The per-(algo, backend, cache) series, resolved on first use.
    series: SeriesTable,
    slow_log: SlowLog<SlowQuery>,
    next_request_id: AtomicU64,
    engines: Vec<QueryEngine>,
    start: Instant,
    shutdown: AtomicBool,
    /// Set once the listener is bound: lets [`gbtl_net::Engine::drain`]
    /// poke a blocking `accept()` awake in threaded mode.
    listen_addr: OnceLock<SocketAddr>,
    /// Set when the evented front-end starts: its connection-layer counters,
    /// mirrored into gauges and the stats endpoint.
    net: OnceLock<Arc<NetStats>>,
}

impl EnginePool {
    /// Build the pool: backend engines, catalog (preloads applied and
    /// pre-warmed), cache, queue, registry. Fails only on a bad preload.
    pub fn new(config: ServerConfig) -> std::io::Result<Arc<EnginePool>> {
        let transpose_cache = TransposeCache::from_env();
        let engines: Vec<QueryEngine> = (0..config.workers.max(1))
            .map(|_| QueryEngine::with_transpose_cache(config.par_threads, transpose_cache.clone()))
            .collect();

        let catalog = Catalog::new();
        for (name, spec) in &config.preload {
            let entry = GraphSpec::parse(spec)
                .and_then(|s| catalog.load(name, &s))
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            engines[0].prewarm(&entry);
        }

        let registry = Registry::new(true);
        let stats = ServerStats::new(&registry);
        Ok(Arc::new(EnginePool {
            cache: ResultCache::new(config.cache_capacity),
            transpose_cache,
            queue: JobQueue::new(config.queue_capacity),
            fuse: config
                .fuse
                .enabled
                .then(|| FuseQueue::from_config(&config.fuse)),
            slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
            next_request_id: AtomicU64::new(1),
            registry,
            stats,
            series: SeriesTable::default(),
            catalog,
            engines,
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            listen_addr: OnceLock::new(),
            net: OnceLock::new(),
            config,
        }))
    }

    /// Record where the front-end listens (for the drain poke).
    pub(crate) fn set_listen_addr(&self, addr: SocketAddr) {
        let _ = self.listen_addr.set(addr);
    }

    /// Adopt the evented front-end's connection-layer counters.
    pub(crate) fn set_net_stats(&self, stats: Arc<NetStats>) {
        let _ = self.net.set(stats);
    }

    /// Spawn one worker thread per backend engine. Workers exit when
    /// [`gbtl_net::Engine::drain`] closes the queue and it empties.
    /// Public so a sharded deployment (gbtl-shard) can start each member
    /// pool's workers itself.
    pub fn spawn_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        let mut handles: Vec<std::thread::JoinHandle<()>> = (0..self.engines.len())
            .map(|i| {
                let pool = self.clone();
                std::thread::Builder::new()
                    .name(format!("gbtl-serve-worker-{i}"))
                    .spawn(move || worker_loop(&pool, i))
                    .expect("spawn worker")
            })
            .collect();
        if self.fuse.is_some() {
            // the flusher: blocks on the fusion window's timer and moves
            // each released group onto the job queue; exits when drain()
            // closes the window
            let pool = self.clone();
            handles.push(
                std::thread::Builder::new()
                    .name("gbtl-serve-fuse-flusher".into())
                    .spawn(move || {
                        let fuse = pool.fuse.as_ref().expect("flusher spawned with fuse on");
                        while let Some((_, members)) = fuse.pop_due() {
                            pool.release(members);
                        }
                    })
                    .expect("spawn fuse flusher"),
            );
        }
        handles
    }

    /// Every resident graph, sorted by name — the router's merge input.
    pub fn graphs(&self) -> Vec<Arc<GraphEntry>> {
        self.catalog.list()
    }

    /// The configured snapshot directory, or the `snapshot` / `restore`
    /// error for a server started without one.
    fn snapshot_dir(&self) -> Result<&std::path::Path, (&'static str, String)> {
        match &self.config.snapshot_dir {
            Some(dir) => Ok(std::path::Path::new(dir)),
            None => Err((
                "bad_request",
                "no snapshot directory configured (set GBTL_SNAPSHOT_DIR or --snapshot-dir)"
                    .to_string(),
            )),
        }
    }

    /// Write `.gbsnap` snapshots — one graph, or the whole catalog — into
    /// the configured snapshot directory. Returns rendered per-graph JSON
    /// fragments for the response (shared with the sharded router so merged
    /// responses use identical item bytes), or `(code, message)` on error.
    pub fn snapshot_graphs(
        &self,
        graph: Option<&str>,
    ) -> Result<Vec<String>, (&'static str, String)> {
        let dir = self.snapshot_dir()?;
        let entries = match graph {
            Some(name) => vec![self.catalog.get(name).ok_or_else(|| {
                (
                    "not_found",
                    format!("no graph named {name:?} (use the load op)"),
                )
            })?],
            None => self.catalog.list(),
        };
        let mut items = Vec::with_capacity(entries.len());
        for g in entries {
            let (path, bytes) = snapfile::write_snapshot(dir, &g).map_err(|e| ("internal", e))?;
            items.push(format!(
                "{{\"graph\":\"{}\",\"epoch\":{},\"bytes\":{bytes},\"path\":\"{}\"}}",
                escape(&g.name),
                g.epoch,
                escape(&path.display().to_string())
            ));
        }
        Ok(items)
    }

    /// Restore graphs from `.gbsnap` files — one graph, or every snapshot
    /// in the directory (optionally filtered, so a sharded router can hand
    /// each shard only the graphs it owns). Installed entries get a fresh
    /// epoch and their transposes pre-warmed, so the first query after a
    /// restore is already on the fast path. Returns rendered per-graph
    /// items (the `list` item shape) or `(code, message)`.
    pub fn restore_graphs(
        &self,
        graph: Option<&str>,
        filter: Option<&dyn Fn(&str) -> bool>,
    ) -> Result<Vec<String>, (&'static str, String)> {
        let dir = self.snapshot_dir()?;
        let mut snaps = Vec::new();
        match graph {
            Some(name) => {
                let path = snapfile::snapshot_path(dir, name);
                if !path.exists() {
                    return Err((
                        "not_found",
                        format!("no snapshot for graph {name:?} under {}", dir.display()),
                    ));
                }
                // a corrupt or truncated file on disk is the server's data
                // problem, not the client's request
                snaps.push(snapfile::read_snapshot(&path).map_err(|e| ("internal", e))?);
            }
            None => {
                for path in snapfile::list_snapshots(dir).map_err(|e| ("internal", e))? {
                    let snap = snapfile::read_snapshot(&path).map_err(|e| ("internal", e))?;
                    if filter.is_none_or(|keep| keep(&snap.name)) {
                        snaps.push(snap);
                    }
                }
            }
        }
        let mut items = Vec::with_capacity(snaps.len());
        for snap in snaps {
            let snapfile::SnapshotFile {
                name,
                spec,
                adj,
                weights,
                ..
            } = snap;
            let entry = self
                .catalog
                .install(
                    &name,
                    spec,
                    gbtl_core::Matrix::from_csr(adj),
                    gbtl_core::Matrix::from_csr(weights),
                )
                .map_err(|e| ("bad_request", e))?;
            self.engines[0].prewarm(&entry);
            items.push(render_graph_item(&entry));
        }
        Ok(items)
    }

    /// Count an inline response as completed when it is a success, exactly
    /// like the [`EnginePool::counted`] reply does for queued responses.
    fn finish_inline(&self, response: String) -> Submission {
        count_if_ok(&self.stats.completed, &response);
        Submission::Inline(response)
    }

    /// Wrap a front-end's reply so queued completions hit the same
    /// completed counter as inline ones, whichever front-end delivers.
    /// Applied once, at admission; every later path sends through it raw.
    fn counted(&self, reply: Reply) -> Reply {
        let completed = self.stats.completed.clone();
        Reply::new(move |response: String| {
            count_if_ok(&completed, &response);
            reply.send(response);
        })
    }

    /// Count and render one refused request — the same error object
    /// whether it is answered inline or through a held member's reply.
    fn reject(&self, why: PushError, id: Option<u64>) -> String {
        match why {
            PushError::Full => {
                self.stats.rejected_overloaded.inc();
                let msg = format!(
                    "queue full ({} queued, {} workers busy)",
                    self.config.queue_capacity,
                    self.engines.len()
                );
                error_response("overloaded", &msg, id)
            }
            PushError::ShuttingDown => {
                self.stats.rejected_shutdown.inc();
                error_response("shutting_down", "server is shutting down", id)
            }
        }
    }

    /// Allocate the next server-wide request id (starts at 1; 0 never
    /// appears, so integration assertions can treat it as "unassigned").
    fn next_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The deadline of a request admitted now.
    fn deadline_from_now(&self, deadline_ms: Option<u64>) -> Instant {
        let ms = deadline_ms.unwrap_or(self.config.default_deadline_ms);
        Instant::now() + Duration::from_millis(ms)
    }

    /// Queue the job of the request being submitted; a full or closed
    /// queue is that request's inline rejection.
    fn admit(&self, job: Job, id: Option<u64>) -> Submission {
        match self.queue.push(job) {
            Ok(()) => Submission::Accepted,
            Err((why, _)) => self.finish_inline(self.reject(why, id)),
        }
    }

    /// Move a group released from the fusion window onto the job queue —
    /// as the same [`Job::Queries`] a never-fused request is, so a group of
    /// one executes identically to it (only the window wait folds into its
    /// queue time). These requests were already `Accepted`, so a rejection
    /// answers **every** member through its own reply.
    fn release(&self, mut members: Vec<Member>) {
        let Some(first) = members.first() else { return };
        let algo = first.params.algo.as_str();
        let k = members.len() as u64;
        let path = if k == 1 { "solo" } else { "fused" };
        self.registry
            .counter(
                "gbtl_fuse_requests_total",
                &[("algo", algo), ("path", path)],
            )
            .add(k);
        if k > 1 {
            self.registry
                .histogram("gbtl_fuse_batch_size", &[("algo", algo)])
                .observe(k);
        }
        let released_ns = gbtl_util::time::now_ns();
        for m in &mut members {
            m.released_ns = released_ns;
        }
        if let Err((why, Job::Queries(members))) = self.queue.push(Job::Queries(members)) {
            for m in members {
                m.reply.send(self.reject(why, m.params.id));
            }
        }
    }

    /// The `snapshot` (`restore == false`) and `restore` ops.
    fn persist(&self, restore: bool, graph: Option<&str>, id: Option<u64>) -> Submission {
        if restore && self.is_draining() {
            return self.finish_inline(self.reject(PushError::ShuttingDown, id));
        }
        let t0 = Instant::now();
        let (field, result) = if restore {
            ("restored", self.restore_graphs(graph, None))
        } else {
            ("snapshots", self.snapshot_graphs(graph))
        };
        self.finish_inline(match result {
            Ok(items) => {
                let dir = self.config.snapshot_dir.as_deref();
                persistence_response(id, dir, field, &items, None, t0)
            }
            Err((code, msg)) => {
                if code == "bad_request" {
                    self.stats.bad_requests.inc();
                }
                error_response(code, &msg, id)
            }
        })
    }
}

impl gbtl_net::Engine for EnginePool {
    fn submit(
        &self,
        line: &str,
        reply: Reply,
        xray: Option<gbtl_trace::TraceContext>,
    ) -> Submission {
        self.stats.received.inc();
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                self.stats.bad_requests.inc();
                return self.finish_inline(error_response("bad_request", &e, None));
            }
        };
        match request {
            Request::Ping => self.finish_inline("{\"ok\":true,\"pong\":true}".into()),
            Request::List => self.finish_inline(render_list(self)),
            Request::Stats => self.finish_inline(render_stats(self)),
            Request::Metrics => self.finish_inline(render_metrics(self)),
            Request::Xray { trace_id, id } => self.finish_inline(xray_response(trace_id, id)),
            Request::Shutdown => {
                self.drain();
                self.finish_inline("{\"ok\":true,\"shutting_down\":true}".into())
            }
            Request::Load { name, spec } => {
                if self.is_draining() {
                    return self.finish_inline(self.reject(PushError::ShuttingDown, None));
                }
                match GraphSpec::parse(&spec).and_then(|s| self.catalog.load(&name, &s)) {
                    Ok(entry) => {
                        // build the new entry's transposes into the shared
                        // cache before acknowledging the load: a reload's
                        // stale entries are unreachable (fresh matrix ids)
                        // and age out
                        self.engines[0].prewarm(&entry);
                        self.finish_inline(format!(
                            "{{\"ok\":true,\"graph\":\"{}\",\"epoch\":{},\"n\":{},\"nnz\":{},\
                             \"spec\":\"{}\"}}",
                            escape(&entry.name),
                            entry.epoch,
                            entry.n(),
                            entry.nnz(),
                            escape(&entry.spec)
                        ))
                    }
                    Err(e) => {
                        self.stats.bad_requests.inc();
                        self.finish_inline(error_response("bad_request", &e, None))
                    }
                }
            }
            Request::Sleep {
                ms,
                id,
                deadline_ms,
            } => {
                // request ids number the admitted jobs, sleeps included
                self.next_request_id();
                let job = Job::Sleep {
                    ms,
                    id,
                    deadline: self.deadline_from_now(deadline_ms),
                    enqueued_ns: gbtl_util::time::now_ns(),
                    xray,
                    reply: self.counted(reply),
                };
                self.admit(job, id)
            }
            Request::QueryAll(params) => {
                let deadline_ms = params
                    .deadline_ms
                    .unwrap_or(self.config.default_deadline_ms);
                let targets: Vec<ScatterTarget> = self
                    .catalog
                    .list()
                    .iter()
                    .map(|g| ScatterTarget {
                        graph: g.name.clone(),
                        shard: 0,
                    })
                    .collect();
                scatter_query_all(
                    targets,
                    &params,
                    deadline_ms,
                    xray,
                    |_, line, sub_reply, sub_xray| self.submit(line, sub_reply, sub_xray),
                    self.counted(reply),
                )
            }
            Request::Snapshot { graph, id } => self.persist(false, graph.as_deref(), id),
            Request::Restore { graph, id } => self.persist(true, graph.as_deref(), id),
            Request::Query(params) => {
                let Some(graph) = self.catalog.get(&params.graph) else {
                    return self.finish_inline(error_response(
                        "not_found",
                        &format!("no graph named {:?} (use the load op)", params.graph),
                        params.id,
                    ));
                };
                let request_id = self.next_request_id();
                let key = cache_key(&graph.name, graph.epoch, &params.cache_params());
                if let Some(hit) = self.cache.get(&key) {
                    // a hit is the render-and-record half of a completion,
                    // run here: no member, no queue, nothing new allocated.
                    // `trace` is not in the key, and a hit dispatched no op,
                    // so a traced hit answers an empty trace
                    let trace = params.trace.then_some("[]");
                    return self.finish_inline(render_and_record(
                        self, &params, &graph, request_id, xray, &hit, trace, None,
                    ));
                }
                let id = params.id;
                let member = Member {
                    deadline: self.deadline_from_now(params.deadline_ms),
                    params,
                    graph,
                    key,
                    request_id,
                    enqueued_ns: gbtl_util::time::now_ns(),
                    released_ns: 0,
                    xray,
                    reply: self.counted(reply),
                };
                // fusion intercept: fusable cache misses go to the batching
                // window instead of straight onto the job queue. Traced
                // queries bypass fusion (per-request span attribution needs
                // exclusive context use), and so does a forced direction: a
                // device charges a fused level the cheaper of push and pull
                // (docs/adr/0015), and a forced mode never crosses.
                // Everything else is unchanged.
                let p = &member.params;
                let fusable = p.algo.takes_source() && !p.trace && p.direction == Direction::Auto;
                let Some(fuse) = self.fuse.as_ref().filter(|_| fusable) else {
                    return self.admit(Job::Queries(vec![member]), id);
                };
                // only `auto` fuses, so the direction stays out of the key
                let fuse_key = format!(
                    "{}@{}|{}|{}",
                    member.graph.name,
                    member.graph.epoch,
                    p.algo.as_str(),
                    p.backend.as_str()
                );
                match fuse.push(&fuse_key, member) {
                    PushOutcome::Held => {}
                    // the push filled the group to max_batch: release it
                    // now, skipping the window
                    PushOutcome::Flush(members) => self.release(members),
                    // window already closed by drain(): reject exactly like
                    // an unfused post-drain submit
                    PushOutcome::Closed(_) => {
                        return self.finish_inline(self.reject(PushError::ShuttingDown, id));
                    }
                }
                Submission::Accepted
            }
        }
    }

    fn connection_opened(&self) {
        self.stats.connections.inc();
    }

    fn connection_closed(&self) {
        self.stats.connections_closed.inc();
    }

    fn oversized_line_response(&self, max_line: usize) -> String {
        self.stats.bad_requests.inc();
        oversized_response(max_line)
    }

    fn drain(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // close the fusion window FIRST and move every held group onto the
        // job queue, then close the queue: members already admitted to the
        // window complete like any admitted job, and the flusher thread
        // (blocked in pop_due) wakes and exits
        if let Some(fuse) = &self.fuse {
            for (_, members) in fuse.close_and_drain() {
                self.release(members);
            }
        }
        self.queue.shutdown();
        // poke a threaded front-end's blocking accept() so it notices the
        // flag; harmless for the evented loop (it polls the flag each tick)
        if let Some(addr) = self.listen_addr.get() {
            let _ = TcpStream::connect(addr);
        }
    }

    fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop_reply() -> Reply {
        Reply::new(|_| {})
    }

    #[test]
    fn submit_answers_control_ops_inline_and_counts_completions() {
        use gbtl_net::Engine as _;
        let pool = EnginePool::new(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .unwrap();
        let before = pool.stats.completed.get();
        match pool.submit("{\"op\":\"ping\"}", noop_reply(), None) {
            Submission::Inline(r) => assert!(r.starts_with(OK_PREFIX)),
            other => panic!("ping must answer inline, got {other:?}"),
        }
        match pool.submit("not json", noop_reply(), None) {
            Submission::Inline(r) => assert!(r.starts_with("{\"ok\":false")),
            other => panic!("parse errors answer inline, got {other:?}"),
        }
        assert_eq!(pool.stats.completed.get(), before + 1, "only the ping");
        assert_eq!(pool.stats.received.get(), 2);
        assert_eq!(pool.stats.bad_requests.get(), 1);
    }

    #[test]
    fn a_pool_reports_the_workers_it_runs() {
        use gbtl_net::Engine as _;
        // `workers: 0` is clamped to one engine — and must say so
        let pool = EnginePool::new(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            ..ServerConfig::default()
        })
        .unwrap();
        assert_eq!(pool.shard_snapshot().workers, 1);
        // its device clock: one cuda query on its one engine, reported
        // exactly in picoseconds and rendered in milliseconds
        let g = pool.catalog.load("k", &GraphSpec::Karate).unwrap();
        let Ok(Request::Query(q)) =
            parse_request(r#"{"op":"query","graph":"k","algo":"pagerank","backend":"cuda"}"#)
        else {
            panic!("a query parses")
        };
        pool.engines[0].run(&g, &q, None, None).unwrap();
        let ps = pool
            .engines
            .iter()
            .map(|e| e.snapshot())
            .sum::<crate::engine::EngineSnapshot>()
            .gpu_modeled_ps;
        assert!(ps > 0);
        match pool.submit("{\"op\":\"stats\"}", noop_reply(), None) {
            Submission::Inline(r) => {
                assert!(r.contains("\"workers\":1,"), "{r}");
                let gpu = format!(
                    "\"modeled_ms\":{:.3},\"modeled_ps\":{ps}}}",
                    ps as f64 / 1e9
                );
                assert!(r.contains(&gpu), "{gpu} in {r}");
            }
            other => panic!("stats must answer inline, got {other:?}"),
        }
        assert!(pool
            .reject(PushError::Full, None)
            .contains("1 workers busy"));
    }

    #[test]
    fn oversized_response_counts_bad_request_and_renders_the_knob() {
        use gbtl_net::Engine as _;
        let pool = EnginePool::new(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .unwrap();
        let r = pool.oversized_line_response(4096);
        assert!(r.contains("4096"), "{r}");
        assert!(r.contains("GBTL_SERVE_MAX_LINE"), "{r}");
        assert_eq!(pool.stats.bad_requests.get(), 1);
    }
}
