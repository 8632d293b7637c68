//! Time the full fold: sequential `mxv` pulls over a fully present operand,
//! `PlusSecond<f64>` (PageRank's product) and `MinSecond<u64>` (connected
//! components'), on rmat10/12/13, er13 and grid48, and print the median µs
//! of one call per (product, graph).
//!
//! ```text
//! cargo run --release --example fold_probe            # 201 rounds
//! cargo run --release --example fold_probe -- 1001    # more rounds
//! ```
//!
//! Each round times one call of every (product, graph) in turn, so a
//! change in the host's speed spreads over all of them. To compare two
//! versions of the kernel, run the same command in both checkouts,
//! alternating, pinned to one CPU (`taskset -c 0`).

use gbtl::algebra::{MinSecond, PlusSecond};
use gbtl::algorithms::adjacency;
use gbtl::backend_seq::mxv;
use gbtl::graphgen::{erdos_renyi, grid_2d, symmetrize, Rmat};
use gbtl::sparse::{CooMatrix, CsrMatrix, DenseVector};
use std::hint::black_box;
use std::time::Instant;

/// The probe's graphs, symmetric, by name.
fn graphs() -> Vec<(&'static str, CsrMatrix<bool>)> {
    let rmat = |scale| symmetrize(&Rmat::new(scale, 8).seed(1).generate());
    let er = |scale: u32| symmetrize(&erdos_renyi(1 << scale, 8 << scale, 2));
    let specs: [(&str, CooMatrix<bool>); 5] = [
        ("rmat10", rmat(10)),
        ("rmat12", rmat(12)),
        ("rmat13", rmat(13)),
        ("er13", er(13)),
        ("grid48", grid_2d(48, 48)),
    ];
    specs
        .into_iter()
        .map(|(name, coo)| (name, adjacency(coo).into_csr()))
        .collect()
}

/// Microseconds one call of `f` takes.
fn time(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

fn main() {
    let rounds: usize = match std::env::args().nth(1) {
        None => 201,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("usage: fold_probe [ROUNDS]");
            std::process::exit(2)
        }),
    };
    let graphs = graphs();
    // PageRank's operand is a rank per vertex, connected components' a
    // label per vertex: both fully present
    let operands: Vec<(DenseVector<f64>, DenseVector<u64>)> = graphs
        .iter()
        .map(|(_, a)| {
            let n = a.nrows();
            let ranks = (0..n).map(|j| 1.0 / (j + 1) as f64).collect();
            let labels = (0..n as u64).collect();
            (
                DenseVector::from_values(ranks),
                DenseVector::from_values(labels),
            )
        })
        .collect();
    let (plus, min) = (PlusSecond::<f64>::new(), MinSecond::<u64>::new());
    let mut samples = vec![[Vec::with_capacity(rounds), Vec::with_capacity(rounds)]; graphs.len()];
    // one untimed round first: page in the graphs and the allocator
    for round in 0..=rounds {
        for ((_, a), ((ranks, labels), times)) in
            graphs.iter().zip(operands.iter().zip(&mut samples))
        {
            let f = time(|| drop(black_box(mxv(a, ranks, plus, None))));
            let m = time(|| drop(black_box(mxv(a, labels, min, None))));
            if round > 0 {
                times[0].push(f);
                times[1].push(m);
            }
        }
    }
    println!("median µs of one seq mxv over a fully present operand, {rounds} rounds");
    println!("{:<18}{:>10}{:>10}{:>10}", "product", "graph", "nnz", "µs");
    for (p, product) in ["PlusSecond<f64>", "MinSecond<u64>"]
        .into_iter()
        .enumerate()
    {
        for ((name, a), times) in graphs.iter().zip(&mut samples) {
            let times = &mut times[p];
            times.sort_by(f64::total_cmp);
            let median = times[times.len() / 2];
            println!("{product:<18}{name:>10}{:>10}{median:>10.1}", a.nnz());
        }
    }
}
