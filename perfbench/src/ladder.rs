//! The per-layer ladder of a wire workload: the workload's own query list
//! replayed at successive depths of the stack, unloaded (one caller, one
//! request at a time). Each rung adds one layer to the one below —
//!
//! ```text
//! parse_request                                   ┐
//!   + ResultCache::get  |  bare algorithm call    ┘ kernel
//!   Engine::run (adds render + checksum)            render
//!   EnginePool::submit (adds queue, worker, cache)  pool
//!   Router::submit (adds placement + forward)       shard
//!   TCP round trip on the evented front-end         net
//! ```
//!
//! — so a layer's share of the unloaded round trip is the difference of
//! adjacent rungs over the top rung, and the five shares telescope to 1.
//! What the loaded workload's latency has beyond the top rung is waiting
//! under its own concurrency: `client.ladder_residual_share`.

use std::hint::black_box;
use std::time::Instant;

use gbtl_algorithms::pagerank::PageRankOptions;
use gbtl_algorithms::{
    bfs_levels, connected_components, maximal_independent_set, pagerank, sssp_with_direction,
    triangle_count,
};
use gbtl_core::{Backend, Context, TraceMode, TransposeCache};
use gbtl_serve::cache::{cache_key, CachedResult, ResultCache};
use gbtl_serve::catalog::GraphEntry;
use gbtl_serve::engine::Engine as QueryEngine;
use gbtl_serve::protocol::{parse_request, Algo, BackendChoice, QueryParams, Request};

use crate::client::{is_ok, Conn};
use crate::libwork::PAR_THREADS;
use crate::run::Metrics;
use crate::stack::{call, Stack};
use crate::stats::percentile;
use crate::wirework::{served_graphs, server_config, WireKind};

/// Queries replayed per rung on the executing workloads: more than the
/// 128-entry result cache, so a cyclic replay never hits it.
const COLD_LADDER_QUERIES: usize = 160;

/// The algorithm call `Engine::run` makes for `q`, without rendering or
/// checksumming its result.
fn bare<B: Backend>(ctx: &Context<B>, g: &GraphEntry, q: &QueryParams) -> Result<(), String> {
    let e = |e: gbtl_core::GblasError| e.to_string();
    match q.algo {
        Algo::Bfs => {
            black_box(bfs_levels(ctx, &g.adj, q.source, q.direction).map_err(e)?);
        }
        Algo::Sssp => {
            black_box(sssp_with_direction(ctx, &g.weights, q.source, q.direction).map_err(e)?);
        }
        Algo::Pagerank => {
            let opts = PageRankOptions {
                damping: q.damping,
                max_iters: q.max_iters,
                ..PageRankOptions::default()
            };
            black_box(pagerank(ctx, &g.adj, opts).map_err(e)?);
        }
        Algo::TriangleCount => {
            black_box(triangle_count(ctx, &g.adj).map_err(e)?);
        }
        Algo::Cc => {
            black_box(connected_components(ctx, &g.adj).map_err(e)?);
        }
        Algo::Mis => {
            black_box(maximal_independent_set(ctx, &g.adj, q.seed).map_err(e)?);
        }
    }
    Ok(())
}

/// Seconds one pass of `f` over every line takes.
fn pass(lines: &[String], mut f: impl FnMut(&str) -> Result<(), String>) -> Result<f64, String> {
    let t0 = Instant::now();
    for line in lines {
        f(line)?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

fn query_of(line: &str) -> Result<QueryParams, String> {
    match parse_request(line)? {
        Request::Query(q) => Ok(q),
        other => Err(format!("ladder line is not a query: {other:?}")),
    }
}

fn expect_ok(response: String) -> Result<(), String> {
    if is_ok(&response) {
        Ok(())
    } else {
        Err(format!("ladder request failed: {response}"))
    }
}

/// What [`run`] measured besides the shares.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Per-request p50 of the top (TCP) rung, ms.
    pub top_p50_ms: f64,
    /// Mean per request at each rung, ms: parse, kernel, engine, pool,
    /// router, tcp (made monotone).
    pub rungs_ms: [f64; 6],
}

/// Run the ladder for `kind` over `lines` (the workload's distinct query
/// lines) and write the `ladder.*` shares.
pub fn run(
    kind: WireKind,
    smoke: bool,
    lines: &[String],
    m: &mut Metrics,
) -> Result<Ladder, String> {
    let hot = kind == WireKind::Hot;
    let lines: Vec<String> = lines
        .iter()
        .take(if hot {
            lines.len()
        } else {
            COLD_LADDER_QUERIES
        })
        .cloned()
        .collect();
    if lines.is_empty() {
        return Err("no query lines to ladder".into());
    }
    // best of `passes` per rung: the cheap hot rungs need the repeats, the
    // executing ones are long enough to be steady in one
    let passes = if hot { 5 } else { 1 };
    let best = |f: &mut dyn FnMut() -> Result<f64, String>| -> Result<f64, String> {
        let mut best = f64::MAX;
        for _ in 0..passes {
            best = best.min(f()?);
        }
        Ok(best)
    };

    let mut config = server_config(kind, None);
    config.preload = served_graphs(kind, smoke)
        .into_iter()
        .map(|(name, g, _)| (name, g.spec()))
        .collect();
    let stack = Stack::start(config, if kind == WireKind::Burst { 2 } else { 0 })
        .map_err(|e| e.to_string())?;
    let result = (|| {
        let entries: std::collections::HashMap<String, std::sync::Arc<GraphEntry>> = stack
            .pools
            .iter()
            .flat_map(|p| p.graphs())
            .map(|g| (g.name.clone(), g))
            .collect();
        let entry = |name: &str| {
            entries
                .get(name)
                .ok_or_else(|| format!("ladder stack lacks graph {name}"))
        };

        // rung 1: the request grammar alone
        let c_parse = best(&mut || pass(&lines, |l| query_of(l).map(|q| drop(black_box(q)))))?;

        // rungs 2 and 3: the kernel with and without the engine's rendering
        let (c_kernel, c_engine) = if hot {
            // a hit never reaches an engine: key, look up, done
            let cache = ResultCache::new(128);
            for l in &lines {
                let q = query_of(l)?;
                let g = entry(&q.graph)?;
                cache.put(
                    cache_key(&g.name, g.epoch, &q.cache_params()),
                    CachedResult {
                        result_json: "{\"reached\":1,\"max_level\":0,\"checksum\":\"0\"}".into(),
                        compute_micros: 1,
                    },
                );
            }
            let c = best(&mut || {
                pass(&lines, |l| {
                    let q = query_of(l)?;
                    let g = entry(&q.graph)?;
                    let key = cache_key(&g.name, g.epoch, &q.cache_params());
                    black_box(cache.get(&key))
                        .map(drop)
                        .ok_or("ladder cache missed".into())
                })
            })?;
            (c, c)
        } else {
            let tc = TransposeCache::from_env();
            let mode = TraceMode::Summary; // as gbtl-serve's engines run
            let seq = Context::sequential()
                .with_trace_mode(mode)
                .with_transpose_cache(tc.clone());
            let par = Context::parallel_with_threads(PAR_THREADS)
                .with_trace_mode(mode)
                .with_transpose_cache(tc.clone());
            let cuda = Context::cuda_default()
                .with_trace_mode(mode)
                .with_transpose_cache(tc);
            let engine = QueryEngine::new(PAR_THREADS);
            for pool in &stack.pools {
                for g in pool.graphs() {
                    seq.seed_symmetric_transpose(&g.adj);
                    seq.seed_symmetric_transpose(&g.weights);
                    engine.prewarm(&g);
                }
            }
            let c_kernel = best(&mut || {
                pass(&lines, |l| {
                    let q = query_of(l)?;
                    let g = entry(&q.graph)?;
                    match q.backend {
                        BackendChoice::Seq => bare(&seq, g, &q),
                        BackendChoice::Par => bare(&par, g, &q),
                        BackendChoice::Cuda => bare(&cuda, g, &q),
                    }
                })
            })?;
            let c_engine = best(&mut || {
                pass(&lines, |l| {
                    let q = query_of(l)?;
                    let g = entry(&q.graph)?;
                    engine.run(g, &q, None, None).map(|o| drop(black_box(o)))
                })
            })?;
            (c_kernel, c_engine)
        };

        // rungs 4 and 5: the owning pool, then the router in front of it
        if hot {
            for l in &lines {
                expect_ok(call(stack.front(), l))?; // fill the cache once
            }
        }
        let c_pool = best(&mut || {
            pass(&lines, |l| {
                let q = query_of(l)?;
                expect_ok(call(stack.owner(&q.graph).as_ref(), l))
            })
        })?;
        let c_router = match &stack.router {
            Some(r) => best(&mut || pass(&lines, |l| expect_ok(call(r.as_ref(), l))))?,
            None => c_pool,
        };

        // rung 6: the wire
        let mut conn = Conn::connect(stack.addr()).map_err(|e| e.to_string())?;
        let mut lat_ms = Vec::with_capacity(lines.len() * passes);
        let c_tcp = best(&mut || {
            pass(&lines, |l| {
                let t = Instant::now();
                let r = conn.request(l).map_err(|e| e.to_string())?;
                lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                expect_ok(r)
            })
        })?;

        // make the rungs monotone (noise can invert near-equal neighbours),
        // then each layer is a difference and the shares sum to exactly 1
        let mut rungs = [c_parse, c_kernel, c_engine, c_pool, c_router, c_tcp];
        for i in 1..rungs.len() {
            rungs[i] = rungs[i].max(rungs[i - 1]);
        }
        let top = rungs[5];
        m.insert("ladder.kernel_share", rungs[1] / top);
        m.insert("ladder.render_share", (rungs[2] - rungs[1]) / top);
        m.insert("ladder.pool_share", (rungs[3] - rungs[2]) / top);
        m.insert("ladder.shard_share", (rungs[4] - rungs[3]) / top);
        m.insert("ladder.net_share", (rungs[5] - rungs[4]) / top);
        Ok(Ladder {
            top_p50_ms: percentile(&lat_ms, 50.0),
            rungs_ms: rungs.map(|r| r * 1e3 / lines.len() as f64),
        })
    })();
    stack.stop();
    result
}

/// The ladder of a library workload: the caller is already at the kernel
/// rung — no serve layer is crossed.
pub fn library(m: &mut Metrics) {
    m.insert("ladder.kernel_share", 1.0);
    for name in [
        "ladder.render_share",
        "ladder.pool_share",
        "ladder.shard_share",
        "ladder.net_share",
    ] {
        m.insert(name, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(kind: WireKind) -> Vec<String> {
        let backends = ["seq", "par", "cuda"];
        (0..if kind == WireKind::Hot { 16 } else { 160 })
            .map(|i| {
                format!(
                    "{{\"op\":\"query\",\"graph\":\"g{}\",\"algo\":\"bfs\",\"backend\":\"{}\",\
                     \"source\":{}}}",
                    i % 3,
                    backends[i % 3],
                    i / 3
                )
            })
            .collect()
    }

    #[test]
    fn shares_telescope_to_one_on_every_wire_workload() {
        for kind in [WireKind::Cold, WireKind::Hot, WireKind::Burst] {
            let mut m = Metrics::new();
            let ladder = run(kind, true, &lines(kind), &mut m).unwrap();
            assert!(ladder.top_p50_ms > 0.0);
            assert!(ladder.rungs_ms.windows(2).all(|w| w[0] <= w[1]));
            let sum: f64 = m.values().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{kind:?}: {m:?}");
            assert!(m.values().all(|&s| (0.0..=1.0).contains(&s)), "{m:?}");
            if kind != WireKind::Burst {
                assert_eq!(m["ladder.shard_share"], 0.0);
            }
        }
    }
}
