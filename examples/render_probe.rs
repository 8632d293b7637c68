//! Time a served query on seq in one process, with and without what
//! `Engine::run` does after the kernel, and print the medians.
//!
//! ```text
//! cargo run --release --example render_probe            # 21 rounds
//! cargo run --release --example render_probe -- 51      # more rounds
//! ```
//!
//! The graphs are the `serve-cold` catalog's, loaded as the server loads
//! them (`Catalog::load`, transposes seeded as `Engine::prewarm` seeds
//! them): rmat:12:8:1, rmat:10:8:2 and grid:48. Per graph and algorithm a
//! round runs four queries as that workload sends them — BFS and SSSP from
//! the graph's 4 highest-degree vertices, PageRank at 20 iterations with
//! four dampings, MIS with four seeds — once through `Engine::run` (the
//! kernel, the digest and the rendered `result` fragment) and once as the
//! bare algorithm call on a sequential context sharing the engine's
//! transpose cache, the two in turn, which first alternating by round. It
//! prints the median over rounds of each sum, of
//! their difference (what serving adds after the kernel) and of that
//! difference's share of `Engine::run`.
//!
//! To compare two versions, copy this file into both checkouts and run the
//! same command in each, alternating, pinned to one CPU (`taskset -c 0`).

use gbtl::algorithms::pagerank::PageRankOptions;
use gbtl::algorithms::{
    bfs_levels, maximal_independent_set, pagerank, sssp_with_direction, Direction,
};
use gbtl::core::{Context, SeqBackend, TraceMode, TransposeCache};
use gbtl_serve::catalog::{Catalog, GraphEntry, GraphSpec};
use gbtl_serve::engine::Engine;
use gbtl_serve::protocol::{Algo, BackendChoice, QueryParams};
use std::hint::black_box;
use std::time::Instant;

const SPECS: [(&str, &str); 3] = [
    ("rmat12", "rmat:12:8:1"),
    ("rmat10", "rmat:10:8:2"),
    ("grid48", "grid:48"),
];
const ALGOS: [Algo; 4] = [Algo::Bfs, Algo::Sssp, Algo::Pagerank, Algo::Mis];
/// The queries of one (graph, algorithm) cell per round.
const QUERIES: usize = 4;

fn params(algo: Algo, g: &GraphEntry, k: usize) -> QueryParams {
    let mut by_degree: Vec<usize> = (0..g.n()).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.adj.csr().row_nnz(v)), v));
    QueryParams {
        id: None,
        graph: g.name.clone(),
        algo,
        backend: BackendChoice::Seq,
        source: by_degree[k],
        damping: [0.85, 0.6, 0.75, 0.9][k],
        max_iters: 20,
        seed: 1 + k as u64,
        direction: Direction::Auto,
        full: false,
        trace: false,
        deadline_ms: None,
    }
}

/// The algorithm call `Engine::run` makes for `q`, and nothing after it.
fn bare(ctx: &Context<SeqBackend>, g: &GraphEntry, q: &QueryParams) {
    match q.algo {
        Algo::Bfs => drop(black_box(bfs_levels(ctx, &g.adj, q.source, q.direction))),
        Algo::Sssp => drop(black_box(sssp_with_direction(
            ctx,
            &g.weights,
            q.source,
            q.direction,
        ))),
        Algo::Pagerank => {
            let opts = PageRankOptions {
                damping: q.damping,
                max_iters: q.max_iters,
                ..PageRankOptions::default()
            };
            drop(black_box(pagerank(ctx, &g.adj, opts)));
        }
        Algo::Mis => drop(black_box(maximal_independent_set(ctx, &g.adj, q.seed))),
        other => unreachable!("{other:?} is not in the probe"),
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let rounds: usize = match std::env::args().nth(1) {
        None => 21,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("usage: render_probe [ROUNDS]");
            std::process::exit(2)
        }),
    };
    let cat = Catalog::new();
    let cache = TransposeCache::from_env();
    let engine = Engine::with_transpose_cache(1, cache.clone());
    let ctx = Context::sequential()
        .with_trace_mode(TraceMode::Off)
        .with_transpose_cache(cache);
    let graphs: Vec<_> = SPECS
        .iter()
        .map(|(name, spec)| {
            let g = cat.load(name, &GraphSpec::parse(spec).unwrap()).unwrap();
            engine.prewarm(&g);
            g
        })
        .collect();
    let cells: Vec<(&GraphEntry, Algo, Vec<QueryParams>)> = graphs
        .iter()
        .flat_map(|g| ALGOS.map(|a| (&**g, a, (0..QUERIES).map(|k| params(a, g, k)).collect())))
        .collect();
    // per cell, one `[run, bare]` sum (µs) per round
    let mut samples = vec![Vec::new(); cells.len()];
    // one untimed round first: page in the graphs and the workspaces
    for round in 0..=rounds {
        for ((g, _, qs), rows) in cells.iter().zip(&mut samples) {
            let mut sums = [0.0; 2];
            for q in qs {
                // which of the two goes first alternates by round
                for side in [round % 2, 1 - round % 2] {
                    let start = Instant::now();
                    if side == 0 {
                        black_box(engine.run(g, q, None, None).unwrap());
                    } else {
                        bare(&ctx, g, q);
                    }
                    sums[side] += start.elapsed().as_secs_f64() * 1e6;
                }
            }
            if round > 0 {
                rows.push(sums);
            }
        }
    }
    println!("seq, {QUERIES} queries per cell, median of {rounds} rounds (µs per round)");
    println!(
        "{:<8}{:<10}{:>12}{:>12}{:>12}{:>10}",
        "graph", "algo", "Engine::run", "bare", "after", "share"
    );
    for ((g, algo, _), rows) in cells.iter().zip(&samples) {
        let col =
            |f: &dyn Fn(&[f64; 2]) -> f64| median(&mut rows.iter().map(f).collect::<Vec<_>>());
        println!(
            "{:<8}{:<10}{:>12.1}{:>12.1}{:>12.1}{:>9.1}%",
            g.name,
            algo.as_str(),
            col(&|r| r[0]),
            col(&|r| r[1]),
            col(&|r| r[0] - r[1]),
            100.0 * col(&|r| (r[0] - r[1]) / r[0]),
        );
    }
}
