//! The scatter-gather router: one [`gbtl_net::Engine`] multiplexing N
//! engine-pool shards.
//!
//! Because [`Router`] implements the same [`Engine`](gbtl_net::Engine)
//! contract as a single [`EnginePool`], both gbtl-serve front-ends
//! (`GBTL_SERVE_MODE` threaded/evented) drive it unchanged — sharding is
//! invisible to the connection layer, and a single-graph query routed
//! through a one-shard router answers with the *same bytes* as a direct
//! pool (the integration tests assert it).
//!
//! Routing rules:
//!
//! * **Single-graph ops** (`query`, `load`, `snapshot`/`restore` with a
//!   `graph`) forward the original request line to the owning shard — by
//!   pin, else by the consistent-hash ring ([`crate::placement`]).
//! * **Catalog-wide ops** scatter and merge: `list` merges the shard
//!   catalogs sorted by name; `stats` renders per-shard occupancy plus
//!   totals computed from the *same* per-shard snapshots (so the two can
//!   never disagree); `metrics` merges each shard's registry snapshot
//!   relabeled `shard="i"` (plus the router's own, `shard="router"`) into
//!   one exposition; `query_all` fans a sub-query to every resident graph
//!   via [`gbtl_serve::scatter`].
//! * **Partial failure**: a slow or draining shard degrades the merged
//!   answer — `query_all` lists unanswered graphs under `"missing"` and
//!   flips `"partial":true`, catalog-wide `snapshot`/`restore` collect
//!   per-shard errors — but never hangs the request past its deadline.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use gbtl_net::{Engine, NetStats, Reply, Submission};
use gbtl_serve::pool::{
    mirror_net_gauges, net_stats_json, persistence_response, render_graph_item,
};
use gbtl_serve::protocol::{
    error_response, oversized_response, parse_request, xray_response, Request,
};
use gbtl_serve::scatter::{scatter_query_all, ScatterTarget};
use gbtl_serve::{EnginePool, ServerConfig};
use gbtl_trace::metrics::expose::{histogram_json, render_json, render_prometheus};
use gbtl_trace::metrics::{Counter, HistogramSnapshot, Registry, RegistrySnapshot};
use gbtl_trace::{emit, Attr, Kind, Scope, TraceContext};
use gbtl_util::json::escape;

use crate::placement::Placement;

/// Router-level counters, kept in the router's registry so the merged
/// exposition carries them under `shard="router"`.
#[derive(Debug)]
struct RouterStats {
    connections: Arc<Counter>,
    connections_closed: Arc<Counter>,
    received: Arc<Counter>,
    forwarded: Arc<Counter>,
    scattered: Arc<Counter>,
    partials: Arc<Counter>,
    bad: Arc<Counter>,
}

impl RouterStats {
    fn new(registry: &Registry) -> RouterStats {
        let c = |name| registry.counter(name, &[]);
        RouterStats {
            connections: c("gbtl_connections_total"),
            connections_closed: c("gbtl_connections_closed_total"),
            received: c("gbtl_router_received_total"),
            forwarded: c("gbtl_router_forwarded_total"),
            scattered: c("gbtl_router_scattered_total"),
            partials: c("gbtl_router_partials_total"),
            bad: c("gbtl_bad_requests_total"),
        }
    }
}

/// The sharded catalog's front door. See the module docs for the routing
/// rules; construct with [`Router::new`] and serve it through
/// [`gbtl_serve::serve_threaded`] or [`gbtl_net::serve`].
#[derive(Debug)]
pub struct Router {
    shards: Vec<Arc<EnginePool>>,
    placement: Placement,
    config: ServerConfig,
    registry: Registry,
    stats: RouterStats,
    /// Round-robin cursor for shard-agnostic compute (`sleep`).
    rr: AtomicU64,
    start: Instant,
    draining: AtomicBool,
    listen_addr: OnceLock<SocketAddr>,
    net: OnceLock<Arc<NetStats>>,
}

impl Router {
    /// Wrap `shards` member pools behind `placement`. `config` supplies the
    /// front-end knobs (mode, max line, default deadline, snapshot dir) —
    /// normally the same base config the pools were built from.
    pub fn new(shards: Vec<Arc<EnginePool>>, placement: Placement, config: ServerConfig) -> Router {
        assert_eq!(
            shards.len(),
            placement.shards(),
            "pool count must match the placement's shard count"
        );
        let registry = Registry::new(true);
        let stats = RouterStats::new(&registry);
        Router {
            shards,
            placement,
            config,
            registry,
            stats,
            rr: AtomicU64::new(0),
            start: Instant::now(),
            draining: AtomicBool::new(false),
            listen_addr: OnceLock::new(),
            net: OnceLock::new(),
        }
    }

    /// The member pools, shard order.
    pub fn pools(&self) -> &[Arc<EnginePool>] {
        &self.shards
    }

    /// The placement function in use.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Record where the front-end listens (for the drain poke).
    pub fn set_listen_addr(&self, addr: SocketAddr) {
        let _ = self.listen_addr.set(addr);
    }

    /// Adopt the evented front-end's connection-layer counters; they are
    /// mirrored into `shard="router"` gauges at exposition time.
    pub fn set_net_stats(&self, stats: Arc<NetStats>) {
        let _ = self.net.set(stats);
    }

    /// Forward `line` verbatim to `shard`, counting the hop. When the
    /// request is x-ray sampled, the hop gets a `router.forward` span
    /// (labeled with the shard) recorded when the shard's answer lands,
    /// and the shard runs under a context parented beneath it — so the
    /// pool's queue/execute spans nest inside the routing hop.
    fn forward(
        &self,
        shard: usize,
        line: &str,
        reply: Reply,
        xray: Option<TraceContext>,
    ) -> Submission {
        self.stats.forwarded.inc();
        let span = xray.map(|ctx| {
            let span_id = gbtl_trace::tree::store().next_span_id();
            (ctx, span_id, gbtl_util::time::now_ns())
        });
        let child = span.map(|(ctx, span_id, _)| ctx.child_of(span_id));
        let record = move || {
            if let Some((ctx, span_id, start_ns)) = span {
                let scope = Scope {
                    tree: Some(ctx),
                    span_id,
                    ..Scope::default()
                };
                let attrs = [("shard", Attr::U64(shard as u64))];
                let hop = Kind::Stage("router.forward", &attrs);
                emit(scope, start_ns, gbtl_util::time::now_ns(), hop);
            }
        };
        let reply = Reply::new(move |response: String| {
            record();
            reply.send(response);
        });
        match self.shards[shard].submit(line, reply, child) {
            // inline answers bypass the reply, so stamp the span here (the
            // reply contract makes Inline and a send mutually exclusive)
            Submission::Inline(response) => {
                record();
                Submission::Inline(response)
            }
            accepted => accepted,
        }
    }

    /// Every resident graph with its hosting shard, sorted by name —
    /// residency (what the shards actually hold), not placement, so a
    /// graph restored or pinned unusually still gets queried where it is.
    fn residency(&self) -> Vec<ScatterTarget> {
        let mut all: Vec<ScatterTarget> = Vec::new();
        for (shard, pool) in self.shards.iter().enumerate() {
            for g in pool.graphs() {
                all.push(ScatterTarget {
                    graph: g.name.clone(),
                    shard,
                });
            }
        }
        all.sort_by(|a, b| a.graph.cmp(&b.graph));
        all
    }

    fn render_list(&self) -> String {
        let mut items: Vec<String> = Vec::new();
        for pool in &self.shards {
            for g in pool.graphs() {
                items.push(render_graph_item(&g));
            }
        }
        // shard catalogs are disjoint by construction; sorting by the
        // rendered item sorts by name (its first field)
        items.sort();
        format!("{{\"ok\":true,\"graphs\":[{}]}}", items.join(","))
    }

    fn render_stats(&self) -> String {
        let snaps: Vec<gbtl_serve::ShardSnapshot> =
            self.shards.iter().map(|p| p.shard_snapshot()).collect();
        let mut per_shard = String::from("[");
        for (i, s) in snaps.iter().enumerate() {
            if i > 0 {
                per_shard.push(',');
            }
            per_shard.push_str(&format!(
                "{{\"shard\":{i},\"graphs\":{},\"queue_depth\":{},\"queue_capacity\":{},\
                 \"occupancy\":{:.4},\"workers\":{},\"cache_entries\":{},\
                 \"received\":{},\"completed\":{},\"bad\":{},\"rejected_overloaded\":{},\
                 \"rejected_shutdown\":{},\"deadline_expired\":{},\"draining\":{}}}",
                s.graphs,
                s.queue_depth,
                s.queue_capacity,
                s.occupancy(),
                s.workers,
                s.cache_entries,
                s.received,
                s.completed,
                s.bad,
                s.rejected_overloaded,
                s.rejected_shutdown,
                s.deadline_expired,
                s.draining
            ));
        }
        per_shard.push(']');
        // totals folded from the SAME snapshots the per-shard section
        // rendered — exact agreement by construction, asserted in tests
        let sum = |f: fn(&gbtl_serve::ShardSnapshot) -> u64| snaps.iter().map(f).sum::<u64>();
        let graphs: usize = snaps.iter().map(|s| s.graphs).sum();
        let queue_depth: usize = snaps.iter().map(|s| s.queue_depth).sum();
        let partial = snaps.iter().any(|s| s.draining);
        let st = &self.stats;
        let net = net_stats_json(self.net.get().map(|n| n.as_ref()));
        format!(
            "{{\"ok\":true,\"stats\":{{\
             \"uptime_ms\":{},\"frontend\":\"{}\",\"shards\":{},\"graphs\":{graphs},\
             \"queue_depth\":{queue_depth},\"partial\":{partial},\
             \"router\":{{\"connections\":{},\"connections_closed\":{},\"received\":{},\
             \"forwarded\":{},\"scattered\":{},\"partials\":{},\"bad\":{}}},\
             \"requests\":{{\"received\":{},\"completed\":{},\"bad\":{},\
             \"rejected_overloaded\":{},\"rejected_shutdown\":{},\
             \"deadline_expired\":{}}},\
             \"per_shard\":{per_shard},\
             \"net\":{net}}}}}",
            self.start.elapsed().as_millis(),
            self.config.mode.as_str(),
            self.shards.len(),
            st.connections.get(),
            st.connections_closed.get(),
            st.received.get(),
            st.forwarded.get(),
            st.scattered.get(),
            st.partials.get(),
            st.bad.get(),
            sum(|s| s.received),
            sum(|s| s.completed),
            sum(|s| s.bad),
            sum(|s| s.rejected_overloaded),
            sum(|s| s.rejected_shutdown),
            sum(|s| s.deadline_expired),
        )
    }

    fn render_metrics(&self) -> String {
        // each shard's registry relabeled shard="i", merged; the router's
        // own registry (net gauges + router counters) rides as
        // shard="router"
        let mut merged: Option<RegistrySnapshot> = None;
        let mut overall = HistogramSnapshot::default();
        for (i, pool) in self.shards.iter().enumerate() {
            overall.merge(&pool.merged_request_latency());
            let snap = pool.registry_snapshot().with_label("shard", &i.to_string());
            match &mut merged {
                None => merged = Some(snap),
                Some(m) => m.merge(&snap),
            }
        }
        // same gauge names as the single-pool exposition; the
        // `shard="router"` label keeps them distinct in the merge
        if let Some(net) = self.net.get() {
            mirror_net_gauges(&self.registry, net);
        }
        let router_snap = self.registry.snapshot().with_label("shard", "router");
        let merged = match merged {
            None => router_snap,
            Some(mut m) => {
                m.merge(&router_snap);
                m
            }
        };
        // merge the shard slow logs worst-first, splicing each entry's
        // shard in front of its fields
        let mut slow_entries: Vec<(u64, String)> = Vec::new();
        for (i, pool) in self.shards.iter().enumerate() {
            for (total_us, entry) in pool.slow_entries_json() {
                let spliced = format!("{{\"shard\":{i},{}", &entry[1..]);
                slow_entries.push((total_us, spliced));
            }
        }
        slow_entries.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let slow = slow_entries
            .iter()
            .map(|(_, e)| e.as_str())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"ok\":true,\"metrics\":{{\"enabled\":true,\"overall\":{},\
             \"registry\":{},\"slow_queries\":[{slow}]}},\"exposition\":\"{}\"}}",
            histogram_json(&overall),
            render_json(&merged),
            escape(&render_prometheus(&merged)),
        )
    }

    /// Catalog-wide snapshot/restore across every shard, merging per-shard
    /// item fragments and collecting per-shard failures instead of aborting
    /// the whole verb on the first bad shard.
    fn scatter_persistence(&self, restore: bool, id: Option<u64>) -> String {
        let t0 = Instant::now();
        let mut items: Vec<String> = Vec::new();
        let mut errors: Vec<String> = Vec::new();
        for (i, pool) in self.shards.iter().enumerate() {
            let filter = |name: &str| self.placement.shard_for(name) == i;
            let result = if restore {
                pool.restore_graphs(None, Some(&filter))
            } else {
                pool.snapshot_graphs(None)
            };
            match result {
                Ok(mut shard_items) => items.append(&mut shard_items),
                Err((code, msg)) => errors.push(format!(
                    "{{\"shard\":{i},\"code\":\"{}\",\"error\":\"{}\"}}",
                    escape(code),
                    escape(&msg)
                )),
            }
        }
        items.sort();
        let dir = self.config.snapshot_dir.as_deref();
        let field = if restore { "restored" } else { "snapshots" };
        persistence_response(id, dir, field, &items, Some(&errors), t0)
    }
}

impl Engine for Router {
    fn submit(&self, line: &str, reply: Reply, xray: Option<TraceContext>) -> Submission {
        self.stats.received.inc();
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                self.stats.bad.inc();
                return Submission::Inline(error_response("bad_request", &e, None));
            }
        };
        match request {
            Request::Ping => Submission::Inline("{\"ok\":true,\"pong\":true}".into()),
            Request::List => Submission::Inline(self.render_list()),
            Request::Stats => Submission::Inline(self.render_stats()),
            Request::Metrics => Submission::Inline(self.render_metrics()),
            // the span-tree store is process-global and the shards are
            // in-process pools, so the router answers directly — same
            // bytes as asking any single pool
            Request::Xray { trace_id, id } => Submission::Inline(xray_response(trace_id, id)),
            Request::Shutdown => {
                self.drain();
                Submission::Inline("{\"ok\":true,\"shutting_down\":true}".into())
            }
            Request::Query(params) => {
                let shard = self.placement.shard_for(&params.graph);
                self.forward(shard, line, reply, xray)
            }
            Request::Load { ref name, .. } => {
                if self.is_draining() {
                    return Submission::Inline(error_response(
                        "shutting_down",
                        "server is shutting down",
                        None,
                    ));
                }
                let shard = self.placement.shard_for(name);
                self.forward(shard, line, reply, xray)
            }
            Request::Sleep { .. } => {
                // shard-agnostic compute: round-robin over live shards
                let n = self.shards.len();
                let k = self.rr.fetch_add(1, Ordering::Relaxed) as usize;
                let shard = (0..n)
                    .map(|i| (k + i) % n)
                    .find(|&i| !self.shards[i].is_draining())
                    .unwrap_or(k % n);
                self.forward(shard, line, reply, xray)
            }
            Request::QueryAll(params) => {
                self.stats.scattered.inc();
                let deadline_ms = params
                    .deadline_ms
                    .unwrap_or(self.config.default_deadline_ms);
                let partials = self.stats.partials.clone();
                let reply = Reply::new(move |response: String| {
                    if response.contains("\"partial\":true") {
                        partials.inc();
                    }
                    reply.send(response);
                });
                scatter_query_all(
                    self.residency(),
                    &params,
                    deadline_ms,
                    xray,
                    |shard, sub_line, sub_reply, sub_xray| {
                        self.forward(shard, sub_line, sub_reply, sub_xray)
                    },
                    reply,
                )
            }
            Request::Snapshot { graph, id } => match graph {
                Some(name) => {
                    let shard = self.placement.shard_for(&name);
                    self.forward(shard, line, reply, xray)
                }
                None => {
                    self.stats.scattered.inc();
                    Submission::Inline(self.scatter_persistence(false, id))
                }
            },
            Request::Restore { graph, id } => {
                if self.is_draining() {
                    return Submission::Inline(error_response(
                        "shutting_down",
                        "server is shutting down",
                        id,
                    ));
                }
                match graph {
                    Some(name) => {
                        let shard = self.placement.shard_for(&name);
                        self.forward(shard, line, reply, xray)
                    }
                    None => {
                        self.stats.scattered.inc();
                        Submission::Inline(self.scatter_persistence(true, id))
                    }
                }
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
        self.stats.bad.inc();
        oversized_response(max_line)
    }

    fn drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // fan out to every member before returning (the composite-engine
        // obligation from the Engine contract), then poke our own accept()
        for pool in &self.shards {
            pool.drain();
        }
        if let Some(addr) = self.listen_addr.get() {
            let _ = TcpStream::connect(addr);
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}
