#![warn(missing_docs)]

//! Shared harness for the reconstructed GBTL-CUDA experiments.
//!
//! Workload builders (one per graph family the evaluation sweeps), timing
//! helpers, and the row format every experiment table prints, for the
//! `experiments` binary's paper-style sweeps.

use std::time::{Duration, Instant};

use gbtl_algebra::{Min, Second};
use gbtl_core::{Context, CudaBackend, Matrix, ParBackend, SeqBackend};
use gbtl_graphgen::{erdos_renyi, grid_2d, symmetrize, weights, Rmat};

/// An undirected simple RMAT graph (skewed degrees).
pub fn rmat_graph(scale: u32, edge_factor: usize, seed: u64) -> Matrix<bool> {
    let coo = symmetrize(&Rmat::new(scale, edge_factor).seed(seed).generate());
    gbtl_algorithms::adjacency(coo)
}

/// An undirected simple Erdős–Rényi graph with the same vertex/edge budget
/// as the matching RMAT (uniform degrees).
pub fn er_graph(scale: u32, edge_factor: usize, seed: u64) -> Matrix<bool> {
    let n = 1usize << scale;
    let coo = symmetrize(&erdos_renyi(n, n * edge_factor, seed));
    gbtl_algorithms::adjacency(coo)
}

/// A `side x side` 2-D grid (high diameter, tiny frontiers).
pub fn grid_graph(side: usize) -> Matrix<bool> {
    gbtl_algorithms::adjacency(grid_2d(side, side))
}

/// Weight a boolean graph with symmetric uniform integers in `[1, 255]`.
pub fn weighted(a: &Matrix<bool>, seed: u64) -> Matrix<u32> {
    let (r, c, v) = a.extract_tuples();
    let coo =
        gbtl_sparse::CooMatrix::from_triples(a.nrows(), a.ncols(), r, c, v).expect("valid matrix");
    let w = weights::uniform_u32_symmetric(&coo, 1, 255, seed);
    Matrix::build(
        a.nrows(),
        a.ncols(),
        w.iter().filter(|&(i, j, _)| i != j),
        Min::new(),
    )
    .expect("indices from valid matrix")
}

/// Retype a boolean graph to `T` ones for typed semirings.
pub fn typed<T: gbtl_algebra::Scalar>(a: &Matrix<bool>, one: T) -> Matrix<T> {
    let (r, c, _) = a.extract_tuples();
    Matrix::build(
        a.nrows(),
        a.ncols(),
        r.into_iter().zip(c).map(|(i, j)| (i, j, one)),
        Second::new(),
    )
    .expect("indices from valid matrix")
}

/// Wall-clock the closure, best of `reps` runs (reps >= 1).
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    assert!(reps >= 1);
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// One comparison row of an experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload label (graph family + scale + operation).
    pub label: String,
    /// Vertices.
    pub n: usize,
    /// Stored edges.
    pub nnz: usize,
    /// Sequential-backend wall time.
    pub seq: Duration,
    /// CUDA-sim functional wall time (host: kernels execute natively on
    /// the calling thread, charges are analytic).
    pub cuda_wall: Duration,
    /// CUDA-sim modeled device time.
    pub cuda_modeled: Duration,
}

impl Row {
    /// Modeled speedup of the simulated device over the sequential CPU.
    pub fn modeled_speedup(&self) -> f64 {
        self.seq.as_secs_f64() / self.cuda_modeled.as_secs_f64().max(1e-12)
    }
}

/// Print a table title/expectation banner without column headers (for
/// experiments with custom columns).
pub fn print_title(title: &str, expected: &str) {
    println!("\n== {title}");
    println!("   expected shape: {expected}");
}

/// Print a table header for [`print_row`].
pub fn print_header(title: &str, expected: &str) {
    print_title(title, expected);
    println!(
        "{:<28} {:>9} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "workload", "n", "nnz", "seq", "cuda wall", "cuda model", "speedup"
    );
}

/// Print one row (speedup = seq / cuda-modeled).
pub fn print_row(r: &Row) {
    println!(
        "{:<28} {:>9} {:>10} {:>12.3?} {:>12.3?} {:>12.3?} {:>8.2}x",
        r.label,
        r.n,
        r.nnz,
        r.seq,
        r.cuda_wall,
        r.cuda_modeled,
        r.modeled_speedup()
    );
}

/// Fresh sequential context.
pub fn seq_ctx() -> Context<SeqBackend> {
    Context::sequential()
}

/// Fresh simulated-CUDA context (default K40-class device).
pub fn cuda_ctx() -> Context<CudaBackend> {
    Context::cuda_default()
}

/// Fresh work-stealing parallel CPU context with an explicit thread count.
pub fn par_ctx(threads: usize) -> Context<ParBackend> {
    Context::parallel_with_threads(threads)
}

/// Physical parallelism of the host — the wall-clock speedup ceiling for
/// the parallel CPU backend, printed alongside thread-sweep tables.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` on a fresh CUDA context and return `(wall, modeled)`.
pub fn time_cuda<F: FnMut(&Context<CudaBackend>)>(mut f: F) -> (Duration, Duration) {
    let ctx = cuda_ctx();
    let t0 = Instant::now();
    f(&ctx);
    let wall = t0.elapsed();
    let modeled = Duration::from_secs_f64(ctx.gpu_stats().modeled_time_s);
    (wall, modeled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_consistent_graphs() {
        let r = rmat_graph(6, 4, 1);
        assert_eq!(r.nrows(), 64);
        assert!(r.nnz() > 0);
        let e = er_graph(6, 4, 1);
        assert_eq!(e.nrows(), 64);
        let g = grid_graph(8);
        assert_eq!(g.nrows(), 64);
        // weighted keeps structure
        let w = weighted(&r, 2);
        assert_eq!(w.nnz(), r.nnz());
        assert!(w.iter().all(|(_, _, v)| (1..=255).contains(&v)));
        // typed keeps structure
        let t = typed(&r, 1u64);
        assert_eq!(t.nnz(), r.nnz());
    }

    #[test]
    fn timing_helpers_work() {
        let d = time_best(3, || std::thread::sleep(Duration::from_micros(50)));
        assert!(d >= Duration::from_micros(50));
        let (wall, modeled) = time_cuda(|ctx| {
            let a = rmat_graph(5, 4, 1);
            let _ = gbtl_algorithms::out_degrees(ctx, &a).unwrap();
        });
        assert!(wall > Duration::ZERO);
        assert!(modeled > Duration::ZERO);
    }

    #[test]
    fn row_speedup() {
        let r = Row {
            label: "x".into(),
            n: 1,
            nnz: 1,
            seq: Duration::from_millis(10),
            cuda_wall: Duration::from_millis(5),
            cuda_modeled: Duration::from_millis(2),
        };
        assert!((r.modeled_speedup() - 5.0).abs() < 1e-9);
    }
}
