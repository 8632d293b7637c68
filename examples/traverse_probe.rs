//! Time `lib-traverse`'s host solves on seq in one process and split each
//! traversal level into its product and the rest, and print the medians.
//!
//! ```text
//! cargo run --release --example traverse_probe            # 21 rounds
//! cargo run --release --example traverse_probe -- 51      # more rounds
//! ```
//!
//! The graphs are the benchmark's host pair, built the same way: rmat14
//! (edge factor 16, seed 1) and torus96, symmetric and loop-free, with
//! symmetric `u32` weights in `[1, 255]`, and `Aᵀ` resident. A round runs
//! `bfs_levels` (`Auto`) then `sssp` from each source, as the workload
//! does: the 12 highest-degree vertices of rmat14 and 4 of torus96 (the
//! workload draws as many from its 16 hubs per round; the probe keeps one
//! fixed set).
//!
//! Every solve is traced, and its records are split three ways: Σ of the
//! `level` spans (each covers one level: product, epilogue and the level
//! loop's books), Σ of the `vxm` / `mxv` op spans inside them (the
//! product), and the remainder (the epilogue and the books). Per
//! (algorithm, graph) the probe prints the median over rounds of each sum
//! and of remainder ÷ product, plus the median of the whole section.
//!
//! To compare two versions, run the same command in both checkouts,
//! alternating, pinned to one CPU (`taskset -c 0`). The share columns
//! are ratios within one process, so a per-build speed offset moves the
//! milliseconds and leaves them nearly alone.

use gbtl::algorithms::{adjacency, bfs_levels, sssp, Direction};
use gbtl::core::{Context, Matrix, SeqBackend, TraceMode};
use gbtl::graphgen::{symmetrize, torus_2d, weights, Rmat};
use gbtl::sparse::CooMatrix;
use std::hint::black_box;
use std::time::Instant;

/// A graph of the section: its adjacency, weights and sources.
struct Case {
    name: &'static str,
    adj: Matrix<bool>,
    weights: Matrix<u32>,
    sources: Vec<usize>,
}

/// The benchmark's host graph `coo`, weighted from `seed`, with its
/// `k` highest-degree vertices (lowest index first among equals).
fn case(name: &'static str, coo: CooMatrix<bool>, seed: u64, k: usize) -> Case {
    let adj = adjacency(coo);
    let (r, c, v) = adj.extract_tuples();
    let structure = CooMatrix::from_triples(adj.nrows(), adj.ncols(), r, c, v).expect("valid");
    let w = weights::uniform_u32_symmetric(&structure, 1, 255, seed);
    let weights = Matrix::from_coo(w, gbtl::algebra::Min::new());
    let mut sources: Vec<usize> = (0..adj.nrows()).collect();
    sources.sort_by_key(|&v| (std::cmp::Reverse(adj.csr().row_nnz(v)), v));
    sources.truncate(k);
    Case {
        name,
        adj,
        weights,
        sources,
    }
}

/// One solve's split, milliseconds: `[wall, Σ level, Σ product]`.
fn split(ctx: &Context<SeqBackend>, solve: impl FnOnce()) -> [f64; 3] {
    ctx.clear_trace();
    let start = Instant::now();
    solve();
    let wall = start.elapsed().as_secs_f64() * 1e3;
    let trace = ctx.trace();
    let ms = |op: &str| trace.op(op).map_or(0.0, |o| o.total_ns as f64 / 1e6);
    [wall, ms("level"), ms("vxm") + ms("mxv")]
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let rounds: usize = match std::env::args().nth(1) {
        None => 21,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("usage: traverse_probe [ROUNDS]");
            std::process::exit(2)
        }),
    };
    let rmat = symmetrize(&Rmat::new(14, 16).seed(1).generate());
    let cases = [
        case("rmat14", rmat, 1, 12),
        case("torus96", torus_2d(96, 96), 0x5eed, 4),
    ];
    let ctx = Context::sequential().with_trace_mode(TraceMode::Summary);
    for c in &cases {
        ctx.prewarm_transpose(&c.adj);
        ctx.prewarm_transpose(&c.weights);
    }
    // per (graph, algorithm), one `[wall, level, product]` sum per round
    let mut samples = vec![[Vec::new(), Vec::new()]; cases.len()];
    let mut sections = Vec::new();
    // one untimed round first: page in the graphs and the workspaces
    for round in 0..=rounds {
        let mut section = 0.0;
        for (c, per_algo) in cases.iter().zip(&mut samples) {
            let mut sums = [[0.0; 3]; 2];
            for &src in &c.sources {
                let bfs = split(&ctx, || {
                    black_box(bfs_levels(&ctx, &c.adj, src, Direction::Auto).unwrap());
                });
                let sssp = split(&ctx, || {
                    black_box(sssp(&ctx, &c.weights, src).unwrap());
                });
                for (sum, one) in sums.iter_mut().zip([bfs, sssp]) {
                    sum.iter_mut().zip(one).for_each(|(s, x)| *s += x);
                }
            }
            section += sums[0][0] + sums[1][0];
            if round > 0 {
                per_algo[0].push(sums[0]);
                per_algo[1].push(sums[1]);
            }
        }
        if round > 0 {
            sections.push(section);
        }
    }
    println!("seq lib-traverse host solves, median of {rounds} rounds (ms per round)");
    println!(
        "{:<6}{:>9}{:>10}{:>10}{:>10}{:>10}{:>12}",
        "algo", "graph", "wall", "levels", "product", "rest", "rest/prod"
    );
    for (c, per_algo) in cases.iter().zip(&samples) {
        for (algo, rows) in ["bfs", "sssp"].into_iter().zip(per_algo) {
            let col =
                |f: &dyn Fn(&[f64; 3]) -> f64| median(&mut rows.iter().map(f).collect::<Vec<_>>());
            println!(
                "{algo:<6}{:>9}{:>10.2}{:>10.2}{:>10.2}{:>10.2}{:>12.3}",
                c.name,
                col(&|r| r[0]),
                col(&|r| r[1]),
                col(&|r| r[2]),
                col(&|r| r[1] - r[2]),
                col(&|r| (r[1] - r[2]) / r[2]),
            );
        }
    }
    println!("section {:.2} ms", median(&mut sections));
}
