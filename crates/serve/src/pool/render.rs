//! Everything the pool renders: the query response, the `list` / `stats` /
//! `metrics` bodies, the point-in-time gauges behind them and the
//! snapshots a sharded router merges ([`ShardSnapshot`], the registry, the
//! slow log) — plus the fragments that router must write byte-identical to
//! a single pool's (graph items, the `net` block, the snapshot/restore
//! envelope).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gbtl_net::NetStats;
use gbtl_trace::metrics::expose::{histogram_json, render_json, render_prometheus};
use gbtl_trace::metrics::{HistogramSnapshot, Registry, RegistrySnapshot};
use gbtl_util::json::escape;

use super::EnginePool;
use crate::catalog::GraphEntry;
use crate::engine::EngineSnapshot;
use crate::protocol::QueryParams;

// The span-tree trace id rides in its own field so a client that asked for
// sampling can fetch the trace afterwards; the `result` bytes are identical
// traced or not (the differential property the xray tests pin down).
#[allow(clippy::too_many_arguments)]
pub(super) fn query_response(
    params: &QueryParams,
    graph: &GraphEntry,
    request_id: u64,
    cached: bool,
    micros: u64,
    result_json: &str,
    trace_json: Option<&str>,
    xray: Option<gbtl_trace::TraceContext>,
) -> String {
    let id_part = params
        .id
        .map(|i| format!("\"id\":{i},"))
        .unwrap_or_default();
    let xray_part = xray
        .map(|c| format!("\"trace_id\":{},", c.trace_id))
        .unwrap_or_default();
    let trace_part = trace_json
        .map(|t| format!(",\"trace\":{t}"))
        .unwrap_or_default();
    format!(
        "{{\"ok\":true,{id_part}{xray_part}\"request_id\":{request_id},\"graph\":\"{}\",\
         \"epoch\":{},\"algo\":\"{}\",\
         \"backend\":\"{}\",\"cached\":{cached},\"micros\":{micros},\
         \"result\":{result_json}{trace_part}}}",
        escape(&graph.name),
        graph.epoch,
        params.algo.as_str(),
        params.backend.as_str(),
    )
}

/// Render one catalog entry as the `list` item object. Shared with the
/// sharded router so a merged catalog listing uses identical item bytes.
pub fn render_graph_item(g: &GraphEntry) -> String {
    format!(
        "{{\"name\":\"{}\",\"epoch\":{},\"n\":{},\"nnz\":{},\"spec\":\"{}\"}}",
        escape(&g.name),
        g.epoch,
        g.n(),
        g.nnz(),
        escape(&g.spec)
    )
}

pub(super) fn render_list(pool: &EnginePool) -> String {
    let items: Vec<String> = pool
        .catalog
        .list()
        .iter()
        .map(|g| render_graph_item(g))
        .collect();
    format!("{{\"ok\":true,\"graphs\":[{}]}}", items.join(","))
}

/// The evented front-end's connection-layer counters as the `net` object
/// of a `stats` response (`null` when that front-end is not running).
/// Shared with the sharded router, whose `stats` carries the same block.
pub fn net_stats_json(net: Option<&NetStats>) -> String {
    let Some(n) = net else {
        return "null".to_string();
    };
    let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
    format!(
        "{{\"open_connections\":{},\"accepted\":{},\"closed\":{},\
         \"backpressure_events\":{},\"idle_timeouts\":{},\
         \"oversized_lines\":{},\"pipelined_depth_hwm\":{},\
         \"completions\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
        n.open(),
        r(&n.accepted),
        r(&n.closed),
        r(&n.backpressure_events),
        r(&n.idle_timeouts),
        r(&n.oversized_lines),
        r(&n.pipelined_depth_hwm),
        r(&n.completions),
        r(&n.bytes_in),
        r(&n.bytes_out),
    )
}

/// Mirror the evented front-end's counters into `gbtl_net_*` gauges of
/// `registry` — the pool's own, or the router's (where the `shard="router"`
/// label keeps them distinct in the merged exposition).
pub fn mirror_net_gauges(registry: &Registry, net: &NetStats) {
    let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let g = |name, v: u64| registry.gauge(name, &[]).set(v as i64);
    g("gbtl_net_open_connections", net.open());
    g("gbtl_net_backpressure_events", r(&net.backpressure_events));
    g("gbtl_net_idle_timeouts", r(&net.idle_timeouts));
    g("gbtl_net_oversized_lines", r(&net.oversized_lines));
    g("gbtl_net_pipelined_depth_hwm", r(&net.pipelined_depth_hwm));
    g("gbtl_net_completions", r(&net.completions));
    g("gbtl_net_bytes_in", r(&net.bytes_in));
    g("gbtl_net_bytes_out", r(&net.bytes_out));
}

/// The successful `snapshot` / `restore` response: the per-graph `items`
/// under `field` (`"snapshots"` or `"restored"`), timed from `t0`. A
/// router's catalog-wide scatter passes its per-shard error objects as
/// `shard_errors`, which adds the `partial` / `errors` fields.
pub fn persistence_response(
    id: Option<u64>,
    snapshot_dir: Option<&str>,
    field: &str,
    items: &[String],
    shard_errors: Option<&[String]>,
    t0: Instant,
) -> String {
    let id_part = id.map(|i| format!("\"id\":{i},")).unwrap_or_default();
    let partial_part = shard_errors
        .map(|e| {
            format!(
                "\"partial\":{},\"errors\":[{}],",
                !e.is_empty(),
                e.join(",")
            )
        })
        .unwrap_or_default();
    format!(
        "{{\"ok\":true,{id_part}\"snapshot_dir\":\"{}\",\"{field}\":[{}],\
         {partial_part}\"micros\":{}}}",
        escape(snapshot_dir.unwrap_or_default()),
        items.join(","),
        t0.elapsed().as_micros()
    )
}

/// Overwrite the point-in-time gauges just before a snapshot is taken, so
/// every exposition reports current depth/occupancy rather than stale sets.
/// The transpose-cache and workspace-pool counters accumulate in the core
/// crates (shared across engines / thread-local, respectively), so they are
/// mirrored into gauges here rather than counted on the request path — and
/// the evented front-end's connection-layer counters ([`NetStats`]) are
/// mirrored the same way when that mode is active.
pub(super) fn refresh_gauges(pool: &EnginePool) {
    pool.registry
        .gauge("gbtl_queue_depth", &[])
        .set(pool.queue.len() as i64);
    pool.registry
        .gauge("gbtl_cache_entries", &[])
        .set(pool.cache.len() as i64);
    let ts = pool.transpose_cache.stats();
    let g = |name, v: u64| pool.registry.gauge(name, &[]).set(v as i64);
    g("gbtl_transpose_cache_entries", ts.entries as u64);
    g("gbtl_transpose_cache_hits", ts.hits);
    g("gbtl_transpose_cache_misses", ts.misses);
    g("gbtl_transpose_cache_evictions", ts.evictions);
    g("gbtl_transpose_cache_invalidations", ts.invalidations);
    g("gbtl_transpose_cache_seeds", ts.seeds);
    let dc = gbtl_core::direction_counters();
    g("gbtl_direction_push_levels", dc.push_levels);
    g("gbtl_direction_pull_levels", dc.pull_levels);
    g("gbtl_direction_rep_switches", dc.rep_switches);
    let ws = gbtl_core::workspace::stats();
    g("gbtl_workspace_takes", ws.takes);
    g("gbtl_workspace_reuses", ws.reuses);
    g("gbtl_workspace_allocs", ws.allocs);
    if let Some(fuse) = &pool.fuse {
        g("gbtl_fuse_pending", fuse.pending() as u64);
    }
    if let Some(net) = pool.net.get() {
        mirror_net_gauges(&pool.registry, net);
    }
}

/// Per-algorithm execute-latency aggregates, merged across backends (and
/// the sleep diagnostic), from the registry's `stage="execute"` histograms.
fn algo_aggregates(pool: &EnginePool) -> Vec<(String, HistogramSnapshot)> {
    let mut aggs: Vec<(String, HistogramSnapshot)> = Vec::new();
    for (key, h) in pool.registry.snapshot().histograms {
        if key.name != "gbtl_stage_latency_us"
            || !key
                .labels
                .iter()
                .any(|(k, v)| k == "stage" && v == "execute")
        {
            continue;
        }
        let Some(algo) = key
            .labels
            .iter()
            .find(|(k, _)| k == "algo")
            .map(|(_, v)| v.clone())
        else {
            continue;
        };
        match aggs.iter_mut().find(|(a, _)| *a == algo) {
            Some((_, agg)) => agg.merge(&h),
            None => aggs.push((algo, h)),
        }
    }
    aggs.sort_by(|a, b| a.0.cmp(&b.0));
    aggs
}
pub(super) fn render_stats(pool: &EnginePool) -> String {
    refresh_gauges(pool);
    let st = &pool.stats;
    let snap: EngineSnapshot = pool.engines.iter().map(|e| e.snapshot()).sum();
    let hits = pool.cache.hits();
    let misses = pool.cache.misses();
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let mut algos = String::from("[");
    for (i, (algo, h)) in algo_aggregates(pool).iter().enumerate() {
        if i > 0 {
            algos.push(',');
        }
        let _ = write!(
            algos,
            "{{\"algo\":\"{}\",\"count\":{},\"mean_us\":{},\"max_us\":{}}}",
            escape(algo),
            h.count,
            h.sum.checked_div(h.count).unwrap_or(0),
            h.max
        );
    }
    algos.push(']');
    let net = net_stats_json(pool.net.get().map(|n| n.as_ref()));
    let ts = pool.transpose_cache.stats();
    let ws = gbtl_core::workspace::stats();
    let dc = gbtl_core::direction_counters();
    let fuse = match &pool.fuse {
        None => "{\"enabled\":false}".to_string(),
        Some(q) => format!(
            "{{\"enabled\":true,\"window_us\":{},\"max_batch\":{},\"pending\":{}}}",
            pool.config.fuse.window.as_micros(),
            pool.config.fuse.max_batch,
            q.pending()
        ),
    };
    format!(
        "{{\"ok\":true,\"stats\":{{\
         \"uptime_ms\":{},\"frontend\":\"{}\",\"workers\":{},\"par_threads\":{},\
         \"queue_capacity\":{},\"queue_depth\":{},\"graphs\":{},\
         \"requests\":{{\"connections\":{},\"connections_closed\":{},\
         \"received\":{},\"completed\":{},\
         \"bad\":{},\"rejected_overloaded\":{},\"rejected_shutdown\":{},\
         \"deadline_expired\":{}}},\
         \"cache\":{{\"capacity\":{},\"entries\":{},\"hits\":{},\"misses\":{},\
         \"hit_rate\":{hit_rate:.4}}},\
         \"transpose_cache\":{{\"enabled\":{},\"capacity\":{},\"entries\":{},\
         \"hits\":{},\"misses\":{},\"evictions\":{},\"invalidations\":{},\
         \"seeds\":{},\"hit_rate\":{:.4}}},\
         \"direction\":{{\"push_levels\":{},\"pull_levels\":{},\
         \"rep_switches\":{}}},\
         \"workspaces\":{{\"takes\":{},\"reuses\":{},\"allocs\":{},\
         \"reuse_rate\":{:.4}}},\
         \"backend_ops\":{{\"total\":{},\"sequential\":{},\"parallel\":{},\"cuda_sim\":{}}},\
         \"pool\":{{\"tasks\":{},\"steals\":{}}},\
         \"gpu\":{{\"kernels\":{},\"modeled_ms\":{:.3},\"modeled_ps\":{}}},\
         \"fuse\":{fuse},\
         \"net\":{net},\
         \"algos\":{algos}}}}}",
        pool.start.elapsed().as_millis(),
        pool.config.mode.as_str(),
        pool.engines.len(),
        pool.config.par_threads,
        pool.config.queue_capacity,
        pool.queue.len(),
        pool.catalog.len(),
        st.connections.get(),
        st.connections_closed.get(),
        st.received.get(),
        st.completed.get(),
        st.bad_requests.get(),
        st.rejected_overloaded.get(),
        st.rejected_shutdown.get(),
        st.deadline_expired.get(),
        pool.cache.capacity(),
        pool.cache.len(),
        hits,
        misses,
        ts.enabled,
        ts.capacity,
        ts.entries,
        ts.hits,
        ts.misses,
        ts.evictions,
        ts.invalidations,
        ts.seeds,
        ts.hit_rate(),
        dc.push_levels,
        dc.pull_levels,
        dc.rep_switches,
        ws.takes,
        ws.reuses,
        ws.allocs,
        ws.reuse_rate(),
        snap.seq_ops + snap.par_ops + snap.cuda_ops,
        snap.seq_ops,
        snap.par_ops,
        snap.cuda_ops,
        snap.pool_tasks,
        snap.pool_steals,
        snap.gpu_kernels,
        snap.gpu_modeled_ps as f64 / 1e9,
        snap.gpu_modeled_ps,
    )
}

/// The `metrics` response: the registry as JSON (counters, gauges,
/// per-label histograms with bucket arrays and percentiles), the all-label
/// request-latency aggregate, the slow-query log, and a Prometheus-style
/// text exposition escaped into the `exposition` field.
pub(super) fn render_metrics(pool: &EnginePool) -> String {
    refresh_gauges(pool);
    let snap = pool.registry.snapshot();
    let overall = pool.registry.merged_histogram("gbtl_request_latency_us");
    let slow: Vec<String> = pool
        .slow_entries_json()
        .into_iter()
        .map(|(_, e)| e)
        .collect();
    format!(
        "{{\"ok\":true,\"metrics\":{{\"enabled\":true,\"overall\":{},\"registry\":{},\
         \"slow_queries\":[{}]}},\"exposition\":\"{}\"}}",
        histogram_json(&overall),
        render_json(&snap),
        slow.join(","),
        escape(&render_prometheus(&snap)),
    )
}

/// A point-in-time view of one pool's occupancy and cumulative counters,
/// consumed by the sharded router's `stats` merge. Field meanings match
/// the single-pool `stats` response.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSnapshot {
    /// Resident graphs.
    pub graphs: usize,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Queue admission bound.
    pub queue_capacity: usize,
    /// Worker threads.
    pub workers: usize,
    /// Result-cache entries.
    pub cache_entries: usize,
    /// Request lines received.
    pub received: u64,
    /// Successful responses delivered.
    pub completed: u64,
    /// Malformed or failed requests.
    pub bad: u64,
    /// Admission-control rejections.
    pub rejected_overloaded: u64,
    /// Rejections after drain began.
    pub rejected_shutdown: u64,
    /// Requests that missed their deadline.
    pub deadline_expired: u64,
    /// Whether this pool has begun draining.
    pub draining: bool,
}

impl ShardSnapshot {
    /// Queue occupancy in [0, 1].
    pub fn occupancy(&self) -> f64 {
        if self.queue_capacity == 0 {
            0.0
        } else {
            self.queue_depth as f64 / self.queue_capacity as f64
        }
    }
}

impl EnginePool {
    /// A point-in-time occupancy/counter snapshot of this pool, as one
    /// shard of a sharded deployment sees it. The router renders per-shard
    /// sections and computes catalog-wide totals from the *same* snapshots,
    /// so the two can never disagree.
    pub fn shard_snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            graphs: self.catalog.len(),
            queue_depth: self.queue.len(),
            queue_capacity: self.config.queue_capacity,
            workers: self.engines.len(),
            cache_entries: self.cache.len(),
            received: self.stats.received.get(),
            completed: self.stats.completed.get(),
            bad: self.stats.bad_requests.get(),
            rejected_overloaded: self.stats.rejected_overloaded.get(),
            rejected_shutdown: self.stats.rejected_shutdown.get(),
            deadline_expired: self.stats.deadline_expired.get(),
            draining: self.shutdown.load(Ordering::SeqCst),
        }
    }

    /// Refresh point-in-time gauges and snapshot the registry — the input
    /// to a sharded deployment's merged exposition (each shard's snapshot
    /// is relabeled `shard="i"` and merged).
    pub fn registry_snapshot(&self) -> RegistrySnapshot {
        refresh_gauges(self);
        self.registry.snapshot()
    }

    /// The all-label request-latency aggregate (the `overall` field of the
    /// metrics response).
    pub fn merged_request_latency(&self) -> HistogramSnapshot {
        self.registry.merged_histogram("gbtl_request_latency_us")
    }

    /// The slow-query log as `(total_us, rendered JSON object)` pairs,
    /// worst first — the exact objects the metrics response embeds, so a
    /// router can merge logs across shards byte-compatibly.
    pub fn slow_entries_json(&self) -> Vec<(u64, String)> {
        self.slow_log
            .entries()
            .into_iter()
            .map(|(total_us, q)| {
                // traced entries carry the trace id, the span-tree depth
                // (resolved at render time — 0 if the trace was evicted),
                // and the fused-batch size, so a slow entry links straight
                // to {"op":"xray","trace_id":N}
                let xray_part = if q.trace_id != 0 {
                    format!(
                        "\"trace_id\":{},\"depth\":{},",
                        q.trace_id,
                        gbtl_trace::tree::store().depth(q.trace_id)
                    )
                } else {
                    String::new()
                };
                (
                    total_us,
                    format!(
                        "{{\"request_id\":{},{xray_part}\"batch\":{},\"graph\":\"{}\",\
                         \"params\":\"{}\",\
                         \"total_us\":{total_us},\"queue_us\":{},\"execute_us\":{},\
                         \"serialize_us\":{}}}",
                        q.request_id,
                        q.batch,
                        escape(&q.graph),
                        escape(&q.params),
                        q.queue_us,
                        q.execute_us,
                        q.serialize_us
                    ),
                )
            })
            .collect()
    }
}
