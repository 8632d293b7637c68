//! A symmetric matrix is its own transpose: a context's prewarm and its
//! first transposed operand share the matrix's own buffer as `Aᵀ` when the
//! transpose would be bit-identical, and build one otherwise. Results, the
//! cache counters and the modeled clock read as if `Aᵀ` had been built.

use std::sync::Arc;

use gbtl::algebra::{PlusPair, Scalar, Second};
use gbtl::algorithms::pagerank::PageRankOptions;
use gbtl::algorithms::{adjacency, bfs_levels, pagerank, sssp_with_direction, Direction};
use gbtl::core::TransposeCache;
use gbtl::graphgen::{symmetrize, weights, Rmat};
use gbtl::prelude::*;
use gbtl::sparse::CsrMatrix;

/// An undirected RMAT graph, its symmetric `u32` weights and an `f64` view
/// of them, all over the adjacency's one structure.
fn graphs() -> (Matrix<bool>, Matrix<u32>, Matrix<f64>) {
    let adj = adjacency(symmetrize(&Rmat::new(8, 8).seed(5).generate()));
    let vals = weights::uniform_u32_symmetric_vals(adj.csr(), 1, 255, 3);
    let halves = vals.iter().map(|&w| f64::from(w) * 0.5).collect();
    let w = Matrix::from_csr(adj.csr().with_same_structure(vals).unwrap());
    let wf = Matrix::from_csr(adj.csr().with_same_structure(halves).unwrap());
    assert!(adj.csr().is_symmetric() && w.csr().is_symmetric());
    (adj, w, wf)
}

/// The transpose `ctx`'s cache holds for `a`, if any.
fn cached<B: Backend, T: Scalar>(ctx: &Context<B>, a: &Matrix<T>) -> Option<Arc<CsrMatrix<T>>> {
    ctx.transpose_cache().peek::<T>(a.id(), a.version())
}

/// One `Aᵀ · 1` pull: the transposed-operand path.
fn pull<B: Backend, T: Scalar>(ctx: &Context<B>, a: &Matrix<T>) -> Vector<u64> {
    let mut w = Vector::new(a.ncols());
    let u = Vector::filled(a.nrows(), 1u64);
    let desc = Descriptor::new().transpose_a();
    ctx.mxv(&mut w, None, no_accum(), PlusPair::new(), a, &u, &desc)
        .unwrap();
    w
}

fn shares_own_buffer<T: Scalar>(a: &Matrix<T>) {
    let warm = Context::sequential();
    warm.prewarm_transpose(a);
    let t = cached(&warm, a).expect("prewarmed");
    assert!(Arc::ptr_eq(&t, &a.shared_csr()), "prewarm shares A");
    assert_eq!(t.structure_id(), a.csr().structure_id());

    let cold = Context::sequential();
    pull(&cold, a);
    let t = cached(&cold, a).expect("the pull cached Aᵀ");
    assert!(Arc::ptr_eq(&t, &a.shared_csr()), "the first pull shares A");
    let s = cold.transpose_cache_stats();
    assert_eq!((s.hits, s.misses, s.seeds, s.pinned), (0, 1, 0, 1));
}

#[test]
fn a_bitwise_symmetric_matrix_is_cached_as_its_own_transpose() {
    let (adj, w, wf) = graphs();
    shares_own_buffer(&adj);
    shares_own_buffer(&w);
    shares_own_buffer(&wf);
}

#[test]
fn a_matrix_that_is_not_its_own_transpose_bit_for_bit_is_built() {
    let asymmetric = Matrix::build(4, 4, [(0, 1, 3u32), (2, 3, 5), (3, 2, 5)], Second::new());
    let mirrored_zeros = Matrix::build(2, 2, [(0, 1, 0.0f64), (1, 0, -0.0)], Second::new());
    let (asymmetric, mirrored_zeros) = (asymmetric.unwrap(), mirrored_zeros.unwrap());
    assert!(
        mirrored_zeros.csr().is_symmetric(),
        "`==` calls it symmetric"
    );
    let warm = Context::sequential();
    warm.prewarm_transpose(&asymmetric);
    warm.prewarm_transpose(&mirrored_zeros);
    let cold = Context::sequential();
    pull(&cold, &asymmetric);
    pull(&cold, &mirrored_zeros);
    for ctx in [&warm, &cold] {
        let built = cached(ctx, &asymmetric).unwrap();
        assert!(!Arc::ptr_eq(&built, &asymmetric.shared_csr()));
        assert_eq!(*built, asymmetric.csr().transpose());
        let built = cached(ctx, &mirrored_zeros).unwrap();
        assert!(!Arc::ptr_eq(&built, &mirrored_zeros.shared_csr()));
        assert_eq!(built.get(0, 1).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(built.get(1, 0).unwrap().to_bits(), 0.0f64.to_bits());
    }
}

fn bits(v: &Vector<f64>) -> Vec<(usize, u64)> {
    v.iter().map(|(i, x)| (i, x.to_bits())).collect()
}

/// BFS, SSSP (`u32` and `f64`) and PageRank, every traversal pulled.
fn solve<B: Backend>(ctx: &Context<B>, g: &(Matrix<bool>, Matrix<u32>, Matrix<f64>)) -> String {
    let (adj, w, wf) = g;
    let src = (0..adj.nrows())
        .max_by_key(|&i| adj.csr().row_nnz(i))
        .unwrap();
    let mut out = String::new();
    for dir in [Direction::Pull, Direction::Auto] {
        let levels = bfs_levels(ctx, adj, src, dir).unwrap();
        let dist = sssp_with_direction(ctx, w, src, dir).unwrap();
        let dist_f = sssp_with_direction(ctx, wf, src, dir).unwrap();
        out += &format!("{:?}\n{:?}\n{:?}\n", levels, dist, bits(&dist_f));
    }
    let (rank, iters) = pagerank(ctx, adj, PageRankOptions::default()).unwrap();
    out + &format!("{:?} {iters}", bits(&rank))
}

fn results_match_a_memoization_free_context<B: Backend>(make: impl Fn() -> Context<B>) {
    let g = graphs();
    let reference = solve(&make().with_transpose_cache(TransposeCache::disabled()), &g);
    let warm = make();
    warm.prewarm_transpose(&g.0);
    warm.prewarm_transpose(&g.1);
    warm.prewarm_transpose(&g.2);
    assert_eq!(
        solve(&warm, &g),
        reference,
        "{} prewarmed",
        warm.backend_name()
    );
    let cold = make();
    assert_eq!(
        solve(&cold, &g),
        reference,
        "{} on a miss",
        cold.backend_name()
    );
    let s = cold.transpose_cache_stats();
    assert_eq!((s.misses, s.pinned), (3, 3), "each graph shared once");
}

#[test]
fn results_are_bit_equal_on_every_backend() {
    results_match_a_memoization_free_context(Context::sequential);
    results_match_a_memoization_free_context(|| Context::parallel_with_threads(2));
    results_match_a_memoization_free_context(Context::cuda_default);
}

#[test]
fn dropping_the_matrix_frees_its_buffer() {
    let (adj, w, _) = graphs();
    let ctx = Context::sequential();
    ctx.prewarm_transpose(&adj);
    pull(&ctx, &w);
    let (id, version) = (adj.id(), adj.version());
    let (adj_buffer, w_buffer) = (
        Arc::downgrade(&adj.shared_csr()),
        Arc::downgrade(&w.shared_csr()),
    );
    drop((adj, w));
    assert_eq!(adj_buffer.strong_count(), 0, "the prewarm kept A alive");
    assert_eq!(w_buffer.strong_count(), 0, "the pull kept A alive");
    assert!(ctx.transpose_cache().peek::<bool>(id, version).is_none());
}

#[test]
fn hit_miss_and_seed_counters_read_as_when_every_transpose_was_built() {
    let (adj, w, wf) = graphs();
    let directed = Matrix::build(3, 3, [(0, 1, 1u32), (1, 2, 1)], Second::new()).unwrap();
    let ctx = Context::sequential();
    ctx.prewarm_transpose(&adj); // miss
    ctx.prewarm_transpose(&adj); // hit
    ctx.seed_symmetric_transpose(&w); // seed
    pull(&ctx, &adj); // hit
    pull(&ctx, &w); // hit
    pull(&ctx, &wf); // miss
    pull(&ctx, &wf); // hit
    pull(&ctx, &directed); // miss
    pull(&ctx, &directed); // hit
    let mut changed = adj.clone();
    changed.set(0, 0, true).unwrap(); // a new version, still symmetric
    pull(&ctx, &changed); // miss
    ctx.prewarm_transpose(&changed); // hit
    let s = ctx.transpose_cache_stats();
    // the counts of a cache that built every one of these transposes
    assert_eq!((s.hits, s.misses, s.seeds), (6, 4, 1));
}

#[test]
fn the_modeled_clock_charges_the_transpose_it_no_longer_builds() {
    let (adj, w, _) = graphs();
    let shared = Context::cuda_default();
    shared.prewarm_transpose(&adj);
    pull(&shared, &w);
    // the parent's prewarm and miss: the backend's transpose, cached
    let built = Context::cuda_default();
    let t = built.backend().transpose(adj.csr());
    built
        .transpose_cache()
        .get_or_build(adj.id(), adj.version(), || t);
    let t = built.backend().transpose(w.csr());
    built
        .transpose_cache()
        .get_or_build(w.id(), w.version(), || t);
    pull(&built, &w);
    assert!(Arc::ptr_eq(&cached(&shared, &w).unwrap(), &w.shared_csr()));
    assert!(!Arc::ptr_eq(&cached(&built, &w).unwrap(), &w.shared_csr()));
    assert_eq!(shared.gpu_stats(), built.gpu_stats());
    assert!(shared.gpu_stats().modeled_ps > 0);
}
