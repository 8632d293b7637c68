//! End-to-end pipelines: generate → serialize → reload → analyse, plus
//! device-accounting behaviour that only shows up across whole workflows.

use gbtl::algebra::Second;
use gbtl::algorithms::{bfs_levels, pagerank::PageRankOptions, Direction};
use gbtl::graphgen::{grid_2d, symmetrize, Rmat};
use gbtl::prelude::*;
use gbtl::sparse::mmio;

#[test]
fn matrix_market_round_trip_preserves_analysis() {
    // Generate, write to Matrix Market, read back: every algorithm result
    // must be identical.
    let coo = symmetrize(&Rmat::new(7, 4).seed(11).generate());
    let a = gbtl::algorithms::adjacency(coo);

    let mut buf = Vec::new();
    let coo_out = {
        let (r, c, v) = a.extract_tuples();
        gbtl::sparse::CooMatrix::from_triples(a.nrows(), a.ncols(), r, c, v).unwrap()
    };
    mmio::write_coo(&coo_out, &mut buf).unwrap();
    let reloaded = mmio::read_coo::<bool, _>(&buf[..]).unwrap();
    let b = Matrix::from_coo(reloaded, Second::new());
    assert_eq!(a, b);

    let ctx = Context::sequential();
    assert_eq!(
        bfs_levels(&ctx, &a, 0, Direction::Auto).unwrap(),
        bfs_levels(&ctx, &b, 0, Direction::Auto).unwrap()
    );
}

#[test]
fn gpu_stats_grow_with_work_and_reset() {
    let ctx = Context::cuda_default();
    let a = gbtl::algorithms::adjacency(symmetrize(&Rmat::new(8, 4).seed(3).generate()));

    let _ = bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
    let after_one = ctx.gpu_stats();
    assert!(after_one.kernels_launched > 0);
    assert!(after_one.mem_transactions > 0);
    assert!(after_one.modeled_ps > 0);

    let _ = bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
    let after_two = ctx.gpu_stats();
    assert!(after_two.kernels_launched > after_one.kernels_launched);
    assert!(after_two.modeled_ps > after_one.modeled_ps);

    ctx.reset_gpu_stats();
    assert_eq!(ctx.gpu_stats().kernels_launched, 0);
}

#[test]
fn masked_mxv_does_less_modeled_work_than_unmasked() {
    // The R-A2 effect end-to-end: a mostly-false mask must reduce the
    // modeled memory traffic of mxv (rows are skipped).
    let a = gbtl::algorithms::adjacency(symmetrize(&Rmat::new(10, 8).seed(9).generate()));
    let af = gbtl::algorithms::pattern_matrix(&Context::sequential(), &a, 1i64);
    let u = Vector::filled(a.ncols(), 1i64);
    let n = a.nrows();

    // keep only 1/32 of rows
    let mut mask = Vector::new(n);
    for i in (0..n).step_by(32) {
        mask.set(i, true);
    }

    let unmasked = Context::cuda_default();
    let mut w = Vector::new(n);
    unmasked
        .mxv(
            &mut w,
            None,
            no_accum(),
            gbtl::algebra::PlusTimes::new(),
            &af,
            &u,
            &Descriptor::new(),
        )
        .unwrap();
    let full = unmasked.gpu_stats().mem_transactions;

    let masked = Context::cuda_default();
    let mut w = Vector::new(n);
    masked
        .mxv(
            &mut w,
            Some(&mask),
            no_accum(),
            gbtl::algebra::PlusTimes::new(),
            &af,
            &u,
            &Descriptor::new(),
        )
        .unwrap();
    let partial = masked.gpu_stats().mem_transactions;

    assert!(
        partial * 4 < full,
        "masked mxv should touch far less memory: {partial} vs {full}"
    );
}

#[test]
fn transfer_accounting_tracks_host_fallbacks() {
    // extract/assign are host fallbacks on the CUDA backend: they must
    // charge PCIe traffic.
    let ctx = Context::cuda_default();
    let a = gbtl::algorithms::adjacency(grid_2d(16, 16));
    let af = gbtl::algorithms::pattern_matrix(&ctx, &a, 1i64);
    ctx.reset_gpu_stats();
    let _ = ctx.extract_mat(&af, &[0, 1, 2], &[0, 1, 2]).unwrap();
    let s = ctx.gpu_stats();
    assert!(s.bytes_d2h > 0, "fallback must charge a download");
    assert!(s.bytes_h2d > 0, "fallback must charge an upload");
}

#[test]
fn whole_pipeline_on_both_backends() {
    // grid -> pagerank + bfs + degrees; backends agree and the pipeline
    // completes at a non-trivial size.
    let a = gbtl::algorithms::adjacency(grid_2d(24, 24));
    let seq = Context::sequential();
    let cuda = Context::cuda_default();

    let (r1, _) = gbtl::algorithms::pagerank(&seq, &a, PageRankOptions::default()).unwrap();
    let (r2, _) = gbtl::algorithms::pagerank(&cuda, &a, PageRankOptions::default()).unwrap();
    for v in 0..a.nrows() {
        let (x, y) = (r1.get(v).unwrap(), r2.get(v).unwrap());
        assert!((x - y).abs() < 1e-9, "vertex {v}");
    }

    assert_eq!(
        gbtl::algorithms::out_degrees(&seq, &a).unwrap(),
        gbtl::algorithms::out_degrees(&cuda, &a).unwrap()
    );

    let l1 = bfs_levels(&seq, &a, 0, Direction::Auto).unwrap();
    let l2 = bfs_levels(&cuda, &a, 0, Direction::Auto).unwrap();
    assert_eq!(l1, l2);
    // grid diameter: (24-1) + (24-1)
    assert_eq!(l1.get(24 * 24 - 1), Some(46));
}

#[test]
fn kronecker_power_builds_graph500_style_graphs() {
    // The Graph500 generator is repeated Kronecker products of a small
    // seed matrix; build K^3 of a 2x2 seed through the frontend and check
    // the closed-form structure.
    use gbtl::algebra::Times;
    let ctx = Context::cuda_default();
    let seed = Matrix::build(
        2,
        2,
        [(0usize, 0usize, 1i64), (0, 1, 1), (1, 0, 1)],
        Second::new(),
    )
    .unwrap();

    let mut g = seed.clone();
    for _ in 0..2 {
        let mut next = Matrix::new(g.nrows() * 2, g.ncols() * 2);
        ctx.kronecker(
            &mut next,
            None,
            no_accum(),
            Times::new(),
            &g,
            &seed,
            &Descriptor::new(),
        )
        .unwrap();
        g = next;
    }
    assert_eq!((g.nrows(), g.ncols()), (8, 8));
    // nnz multiplies: 3^3 = 27
    assert_eq!(g.nnz(), 27);
    // Kronecker closed form: G(i,j) present iff seed(i_b, j_b) present for
    // every bit position b.
    let seed_has = |i: usize, j: usize| seed.get(i, j).is_some();
    for i in 0..8 {
        for j in 0..8 {
            let expect = (0..3).all(|b| seed_has((i >> b) & 1, (j >> b) & 1));
            assert_eq!(g.get(i, j).is_some(), expect, "({i},{j})");
        }
    }
    // both backends agree
    let seq = Context::sequential();
    let mut g2 = seed.clone();
    for _ in 0..2 {
        let mut next = Matrix::new(g2.nrows() * 2, g2.ncols() * 2);
        seq.kronecker(
            &mut next,
            None,
            no_accum(),
            Times::new(),
            &g2,
            &seed,
            &Descriptor::new(),
        )
        .unwrap();
        g2 = next;
    }
    assert_eq!(g, g2);
}

#[test]
fn coloring_pipeline_on_generated_graph() {
    use gbtl::algorithms::coloring::{color_count, greedy_color, verify_coloring};
    let a = gbtl::algorithms::adjacency(gbtl::graphgen::symmetrize(
        &gbtl::graphgen::Rmat::new(7, 4).seed(31).generate(),
    ));
    let ctx = Context::cuda_default();
    let colors = greedy_color(&ctx, &a, 17).unwrap();
    assert!(verify_coloring(&a, &colors));
    // colors bounded by max degree + 1
    let max_deg = gbtl::algorithms::out_degrees(&ctx, &a)
        .unwrap()
        .iter()
        .map(|(_, d)| d)
        .max()
        .unwrap_or(0) as usize;
    assert!(color_count(&colors) <= max_deg + 1);
}
