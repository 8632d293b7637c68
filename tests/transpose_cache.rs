//! Differential tests for the versioned transpose cache: with the cache on
//! (the default) every operation must produce results bit-identical to a
//! memoization-free context, on all three backends — and a mutated matrix
//! must never be served a stale transpose.

use gbtl::algebra::{Min, PlusTimes, Second};
use gbtl::algorithms::{adjacency, bfs_levels, sssp_with_direction, Direction};
use gbtl::core::TransposeCache;
use gbtl::graphgen::{symmetrize, weights, Rmat};
use gbtl::prelude::*;
use proptest::prelude::*;

type Mat = Matrix<i64>;

fn arb_matrix(n: usize, max_nnz: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec((0..n, 0..n, -20i64..20), 0..max_nnz)
        .prop_map(move |triples| Matrix::build(n, n, triples, Second::new()).expect("in bounds"))
}

fn arb_vector(n: usize) -> impl Strategy<Value = Vector<i64>> {
    proptest::collection::vec((0..n, -20i64..20), 0..n * 2).prop_map(move |pairs| {
        let mut v = Vector::new(n);
        for (i, x) in pairs {
            v.set(i, x);
        }
        v
    })
}

const N: usize = 12;

/// `A^T · u` twice through a context (second run may hit the cache) vs once
/// through a cache-disabled twin of the same backend.
fn mxv_transposed_on_off<B: Backend>(on: &Context<B>, off: &Context<B>, a: &Mat, u: &Vector<i64>) {
    let desc = Descriptor::new().transpose_a();
    let mut w_ref = Vector::new(N);
    off.mxv(&mut w_ref, None, no_accum(), PlusTimes::new(), a, u, &desc)
        .unwrap();
    for _ in 0..2 {
        let mut w = Vector::new(N);
        on.mxv(&mut w, None, no_accum(), PlusTimes::new(), a, u, &desc)
            .unwrap();
        assert_eq!(w, w_ref);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_transposed_mxv_matches_uncached(a in arb_matrix(N, 60), u in arb_vector(N)) {
        mxv_transposed_on_off(
            &Context::sequential(),
            &Context::sequential().with_transpose_cache(TransposeCache::disabled()),
            &a, &u,
        );
        mxv_transposed_on_off(
            &Context::parallel_with_threads(3),
            &Context::parallel_with_threads(3).with_transpose_cache(TransposeCache::disabled()),
            &a, &u,
        );
        mxv_transposed_on_off(
            &Context::cuda_default(),
            &Context::cuda_default().with_transpose_cache(TransposeCache::disabled()),
            &a, &u,
        );
    }

    #[test]
    fn cached_transposed_mxm_matches_uncached(a in arb_matrix(N, 50), b in arb_matrix(N, 50)) {
        let on = Context::sequential();
        let off = Context::sequential().with_transpose_cache(TransposeCache::disabled());
        let desc = Descriptor::new().transpose_a().transpose_b();
        let mut c_ref = Matrix::new(N, N);
        off.mxm(&mut c_ref, None, no_accum(), PlusTimes::new(), &a, &b, &desc).unwrap();
        for _ in 0..2 {
            let mut c = Matrix::new(N, N);
            on.mxm(&mut c, None, no_accum(), PlusTimes::new(), &a, &b, &desc).unwrap();
            prop_assert_eq!(&c, &c_ref);
        }
        // both operand transposes landed in the cache; the repeat only hit
        let cs = on.transpose_cache_stats();
        prop_assert_eq!(cs.misses, 2);
        prop_assert!(cs.hits >= 2);
    }

    #[test]
    fn mutation_invalidates_cached_transpose(a in arb_matrix(N, 60), u in arb_vector(N)) {
        let on = Context::sequential();
        let off = Context::sequential().with_transpose_cache(TransposeCache::disabled());
        let desc = Descriptor::new().transpose_a();
        let mut a = a;
        // populate the cache with the pre-mutation transpose
        let mut w = Vector::new(N);
        on.mxv(&mut w, None, no_accum(), PlusTimes::new(), &a, &u, &desc).unwrap();
        // mutate: the version stamp changes, so the old entry can't match
        a.set(3, 7, 99).unwrap();
        a.remove(0, 0);
        let mut w_on = Vector::new(N);
        on.mxv(&mut w_on, None, no_accum(), PlusTimes::new(), &a, &u, &desc).unwrap();
        let mut w_off = Vector::new(N);
        off.mxv(&mut w_off, None, no_accum(), PlusTimes::new(), &a, &u, &desc).unwrap();
        prop_assert_eq!(w_on, w_off);
    }

    #[test]
    fn clones_do_not_poison_the_cache(a in arb_matrix(N, 60), u in arb_vector(N)) {
        // a clone shares the id; mutating it draws a fresh version, so each
        // variant resolves its own transpose through one shared cache
        let on = Context::sequential();
        let off = Context::sequential().with_transpose_cache(TransposeCache::disabled());
        let desc = Descriptor::new().transpose_a();
        let mut b = a.clone();
        let mut w = Vector::new(N);
        on.mxv(&mut w, None, no_accum(), PlusTimes::new(), &a, &u, &desc).unwrap();
        b.set(1, 2, -5).unwrap();
        let mut w_on = Vector::new(N);
        on.mxv(&mut w_on, None, no_accum(), PlusTimes::new(), &b, &u, &desc).unwrap();
        let mut w_off = Vector::new(N);
        off.mxv(&mut w_off, None, no_accum(), PlusTimes::new(), &b, &u, &desc).unwrap();
        prop_assert_eq!(w_on, w_off);
        // and the original still resolves to its own (cached) transpose
        let mut w_a = Vector::new(N);
        on.mxv(&mut w_a, None, no_accum(), PlusTimes::new(), &a, &u, &desc).unwrap();
        prop_assert_eq!(w_a, w);
    }
}

#[test]
fn prewarm_makes_the_first_transposed_op_a_hit() {
    let a = Matrix::build(
        4,
        4,
        vec![(0, 1, 2i64), (2, 3, 5), (3, 0, 7)],
        Second::new(),
    )
    .unwrap();
    let ctx = Context::sequential();
    ctx.prewarm_transpose(&a);
    let before = ctx.transpose_cache_stats();
    assert_eq!(before.misses, 1, "prewarm built the transpose");
    let u = Vector::filled(4, 1i64);
    let mut w = Vector::new(4);
    ctx.mxv(
        &mut w,
        None,
        no_accum(),
        PlusTimes::new(),
        &a,
        &u,
        &Descriptor::new().transpose_a(),
    )
    .unwrap();
    let after = ctx.transpose_cache_stats();
    assert_eq!(after.misses, 1, "first transposed op built nothing");
    assert_eq!(after.hits, before.hits + 1);
}

#[test]
fn one_cache_serves_every_backend() {
    // the transpose is bit-identical across backends, so serve shares one
    // store: a build through seq must be a hit for par and cuda
    let cache = TransposeCache::with_capacity(4);
    let seq = Context::sequential().with_transpose_cache(cache.clone());
    let par = Context::parallel_with_threads(2).with_transpose_cache(cache.clone());
    let cuda = Context::cuda_default().with_transpose_cache(cache.clone());
    let a = Matrix::build(
        5,
        5,
        vec![(0, 4, 1i64), (1, 2, 3), (4, 0, 9)],
        Second::new(),
    )
    .unwrap();
    let u = Vector::filled(5, 1i64);
    let desc = Descriptor::new().transpose_a();
    let run = |ctx: &dyn Fn(&mut Vector<i64>)| {
        let mut w = Vector::new(5);
        ctx(&mut w);
        w
    };
    let w_seq = run(&|w| {
        seq.mxv(w, None, no_accum(), PlusTimes::new(), &a, &u, &desc)
            .unwrap()
    });
    let w_par = run(&|w| {
        par.mxv(w, None, no_accum(), PlusTimes::new(), &a, &u, &desc)
            .unwrap()
    });
    let w_cuda = run(&|w| {
        cuda.mxv(w, None, no_accum(), PlusTimes::new(), &a, &u, &desc)
            .unwrap()
    });
    assert_eq!(w_seq, w_par);
    assert_eq!(w_seq, w_cuda);
    let cs = cache.stats();
    assert_eq!(cs.misses, 1, "only the first backend built A^T");
    assert_eq!(
        cs.hits, 2,
        "the other two were served from the shared store"
    );
}

/// Whole forced-pull traversals — every level resolves `Aᵀ` — through
/// `cached` against a memoization-free `uncached` twin of the same backend.
fn pull_traversals_on_off<B: Backend>(
    cached: Context<B>,
    uncached: Context<B>,
    a: &Matrix<bool>,
    w: &Matrix<u32>,
) {
    let uncached = uncached.with_transpose_cache(TransposeCache::disabled());
    let levels = bfs_levels(&uncached, a, 0, Direction::Pull).unwrap();
    let dist = sssp_with_direction(&uncached, w, 0, Direction::Pull).unwrap();
    // twice: the second traversal finds every transpose already built
    for _ in 0..2 {
        assert_eq!(bfs_levels(&cached, a, 0, Direction::Pull).unwrap(), levels);
        assert_eq!(
            sssp_with_direction(&cached, w, 0, Direction::Pull).unwrap(),
            dist
        );
    }
}

#[test]
fn pull_traversals_match_the_uncached_run_on_every_backend() {
    let structure = symmetrize(&Rmat::new(8, 8).seed(7).generate());
    let a = adjacency(structure.clone());
    let weighted = weights::uniform_u32_symmetric(&structure, 1, 100, 7);
    let w: Matrix<u32> = Matrix::build(
        a.nrows(),
        a.ncols(),
        weighted.iter().filter(|&(i, j, _)| i != j),
        Min::new(),
    )
    .unwrap();

    // one store behind all three backends, as in gbtl-serve
    let cache = TransposeCache::with_capacity(4);
    pull_traversals_on_off(
        Context::sequential().with_transpose_cache(cache.clone()),
        Context::sequential(),
        &a,
        &w,
    );
    let misses = cache.stats().misses;
    assert_eq!(misses, 2, "seq built Aᵀ once per graph, not once per level");
    pull_traversals_on_off(
        Context::parallel_with_threads(3).with_transpose_cache(cache.clone()),
        Context::parallel_with_threads(3),
        &a,
        &w,
    );
    pull_traversals_on_off(
        Context::cuda_default().with_transpose_cache(cache.clone()),
        Context::cuda_default(),
        &a,
        &w,
    );
    assert_eq!(cache.stats().misses, misses, "par and cuda-sim only hit");
}
