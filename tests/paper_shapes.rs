//! The paper's figures that the modeled clock decides, as assertions.
//!
//! cuda-sim's charges are arithmetic over the operands, so a shape the
//! modeled device draws is deterministic and belongs in the test suite,
//! not in a one-off table: a model change that flips one fails here.
//! Each test names its EXPERIMENTS.md section, and the new ones print that
//! section's table under `cargo test --test paper_shapes -- --nocapture`.
//! R-F8's modeled fusion win is asserted in `tests/fuse.rs`
//! (`fused_traversal_costs_less_modeled_time_than_the_solo_loop`).

use gbtl::algebra::Second;
use gbtl::algorithms::{adjacency, bfs_levels};
use gbtl::graphgen::{erdos_renyi, symmetrize, Rmat};
use gbtl::prelude::*;

/// A generator the studies sweep: skewed RMAT degrees or uniform
/// Erdős–Rényi ones at the same vertex and edge budget.
enum Family {
    Rmat,
    Er,
}

/// An undirected simple graph on `2^scale` vertices from
/// `2^scale · edge_factor` generated edges.
fn graph(family: Family, scale: u32, edge_factor: usize, seed: u64) -> Matrix<bool> {
    let coo = match family {
        Family::Rmat => Rmat::new(scale, edge_factor).seed(seed).generate(),
        Family::Er => erdos_renyi(1 << scale, (1 << scale) * edge_factor, seed),
    };
    adjacency(symmetrize(&coo))
}

/// `a` with every stored entry 1.0.
fn ones(a: &Matrix<bool>) -> Matrix<f64> {
    let (r, c, _) = a.extract_tuples();
    let triples = r.into_iter().zip(c).map(|(i, j)| (i, j, 1.0));
    Matrix::build(a.nrows(), a.ncols(), triples, Second::new()).expect("valid indices")
}

/// One unmasked `A +.× 1` per pull kernel on a fresh K40-class device:
/// memory transactions, HYB's plus four per overflow atomic.
fn spmv_txns(a: &Matrix<f64>) -> [u64; 4] {
    let u = Vector::filled(a.ncols(), 1.0);
    [
        SpmvKernel::Scalar,
        SpmvKernel::Vector,
        SpmvKernel::Ell,
        SpmvKernel::Hyb,
    ]
    .map(|kernel| {
        let ctx = Context::cuda_default().with_spmv_kernel(kernel);
        let mut w = Vector::new(a.nrows());
        ctx.mxv(
            &mut w,
            None,
            no_accum(),
            PlusTimes::new(),
            a,
            &u,
            &Descriptor::new(),
        )
        .unwrap();
        let s = ctx.gpu_stats();
        s.mem_transactions + 4 * s.atomic_ops
    })
}

/// R-A1: warp-per-row beats thread-per-row on skewed RMAT, and ELL's
/// padding to the hub's degree makes it the worst there, HYB's split in
/// between (rmat12: vector 97 920, scalar 268 685, HYB 375 700, ELL
/// 770 275). On uniform ER, ELL's perfect coalescing wins (er12: ELL
/// 146 735, HYB 159 079, vector 162 961, scalar 381 145). HYB against
/// vector on ER is not a shape: the order flips at scale 14.
#[test]
fn r_a1_spmv_kernel_order() {
    let [scalar, vector, ell, hyb] = spmv_txns(&ones(&graph(Family::Rmat, 12, 16, 5)));
    assert!(
        vector < scalar && scalar < hyb && hyb < ell,
        "rmat12: vector {vector} < scalar {scalar} < HYB {hyb} < ELL {ell}"
    );
    let [scalar, vector, ell, _] = spmv_txns(&ones(&graph(Family::Er, 12, 16, 5)));
    assert!(
        ell < vector && vector < scalar,
        "er12: ELL {ell} < vector {vector} < scalar {scalar}"
    );
}

/// R-A2: a mask pushed into `mxv` skips the rows it drops, so the modeled
/// traffic of `A +.× 1` falls strictly with the kept fraction (rmat14:
/// 454 113 → 225 112 → 111 111 → 53 888 transactions at 1/1, 1/4, 1/16,
/// 1/64), though by less than the fraction: not every read is per kept row.
#[test]
fn r_a2_mask_traffic_tracks_kept_fraction() {
    for scale in [12, 14] {
        let a = ones(&graph(Family::Rmat, scale, 16, 5));
        let u = Vector::filled(a.ncols(), 1.0);
        let txns = [1, 4, 16, 64].map(|keep_every| {
            let mask = (keep_every > 1).then(|| {
                let mut m = Vector::new(a.nrows());
                for i in (0..a.nrows()).step_by(keep_every) {
                    m.set(i, true);
                }
                m
            });
            let ctx = Context::cuda_default();
            let mut w = Vector::new(a.nrows());
            ctx.mxv(
                &mut w,
                mask.as_ref(),
                no_accum(),
                PlusTimes::new(),
                &a,
                &u,
                &Descriptor::new(),
            )
            .unwrap();
            let s = ctx.gpu_stats();
            println!(
                "R-A2 rmat{scale} kept 1/{keep_every}: {} txns, {:.1} us",
                s.mem_transactions,
                s.modeled_time_us()
            );
            s.mem_transactions
        });
        assert!(
            txns.windows(2).all(|w| w[1] < w[0]),
            "rmat{scale}: traffic at kept 1/1, 1/4, 1/16, 1/64 falls: {txns:?}"
        );
    }
}

/// R-A3: a one-shot BFS reads each edge O(1) times at device bandwidth
/// while PCIe moves the same bytes 24× slower, so once launch costs
/// amortise, the share of an upload-run-download cycle spent on transfers
/// rises strictly with scale (rmat10 → 12 → 14: 11.1 → 23.5 → 42.8 %).
/// The transfers are charges only: the level vectors are equal.
#[test]
fn r_a3_transfer_share_rises_with_scale() {
    let shares = [10, 12, 14].map(|scale| {
        let a = graph(Family::Rmat, scale, 16, 7);
        let ctx = Context::cuda_default();
        let resident = bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
        let resident_us = ctx.gpu_stats().modeled_time_us();
        let ctx = Context::cuda_default();
        ctx.upload_matrix(&a);
        let moved = bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
        ctx.download_vector(&moved);
        let total_us = ctx.gpu_stats().modeled_time_us();
        assert_eq!(resident, moved, "rmat{scale}: transfers change no level");
        let share = (total_us - resident_us) / total_us;
        println!(
            "R-A3 rmat{scale} nnz {}: resident {resident_us:.1} us, with transfers \
             {total_us:.1} us, transfer share {:.1} %",
            a.nnz(),
            share * 100.0
        );
        share
    });
    assert!(
        shares.windows(2).all(|w| w[0] < w[1]),
        "transfer share at rmat10, 12, 14 rises: {shares:?}"
    );
}

/// R-A4: level-synchronous BFS launches many small kernels, so its modeled
/// time is exactly linear in the launch cost; the remainder is
/// bandwidth-bound (halves and doubles with memory bandwidth, within 1 %),
/// and the SM count is irrelevant (rmat14: 499.4 µs, 375.0 of it 75
/// launches; 437.2 / 623.7 µs at 2× / ½ bandwidth).
#[test]
fn r_a4_cost_model_sensitivities() {
    let a = graph(Family::Rmat, 14, 16, 7);
    let k40 = GpuConfig::k40();
    let run = |label: &str, tune: fn(&mut GpuConfig)| {
        let mut config = k40.clone();
        tune(&mut config);
        let ctx = Context::cuda(config);
        bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
        let s = ctx.gpu_stats();
        println!(
            "R-A4 rmat14 {label}: {:.1} us, {} kernels",
            s.modeled_time_us(),
            s.kernels_launched
        );
        (s.modeled_ps, s.kernels_launched)
    };
    let (base, kernels) = run("baseline (K40)", |_| {});
    let (bw2, _) = run("2x memory bandwidth", |c| c.mem_bandwidth_gbps *= 2.0);
    let (bw_half, _) = run("1/2 memory bandwidth", |c| c.mem_bandwidth_gbps /= 2.0);
    let (sm2, _) = run("2x SM count", |c| c.sm_count *= 2);
    let (no_launch, _) = run("zero launch overhead", |c| c.kernel_launch_us = 0.0);
    let (launch4, _) = run("4x launch overhead", |c| c.kernel_launch_us *= 4.0);

    let launch = base - no_launch;
    assert_eq!(
        launch,
        kernels * 5_000_000,
        "{kernels} launches at {} us",
        k40.kernel_launch_us
    );
    assert_eq!(launch4 - no_launch, 4 * launch, "4x launch cost adds 4x");
    // the remainder is bandwidth-bound up to its compute-bound launches:
    // within 1 % of half and of double
    let within_1_percent = |x: u64, y: u64| x.abs_diff(y) * 100 <= y;
    assert!(
        within_1_percent(bw2 - launch, no_launch / 2),
        "2x bandwidth halves the remainder: {bw2} - {launch} vs {no_launch} / 2"
    );
    assert!(
        within_1_percent(bw_half - launch, no_launch * 2),
        "1/2 bandwidth doubles the remainder: {bw_half} - {launch} vs {no_launch} x 2"
    );
    assert_eq!(sm2, base, "2x SMs moves nothing");
}

/// R-F4: cuda-sim's ESC SpGEMM is charged by its candidate volume, so the
/// modeled time of an unmasked `A·A` tracks the flops (≈ n·deg²): each
/// doubling of ER's degree multiplies it by 2.5–4.5× (n = 4096, degree
/// 2 → 4 → 8 → 16: 2.80, 3.43, 3.54).
#[test]
fn r_f4_esc_time_tracks_flops() {
    let times = [2, 4, 8, 16].map(|degree| {
        let a = ones(&graph(Family::Er, 12, degree, 11));
        let ctx = Context::cuda_default();
        let mut c = Matrix::new(a.nrows(), a.ncols());
        ctx.mxm(
            &mut c,
            None,
            no_accum(),
            PlusTimes::new(),
            &a,
            &a,
            &Descriptor::new(),
        )
        .unwrap();
        let us = ctx.gpu_stats().modeled_time_us();
        println!(
            "R-F4 er12 degree {degree}: nnz {}, product nnz {}, modeled ESC {us:.1} us",
            a.nnz(),
            c.nnz()
        );
        us
    });
    let growth: Vec<f64> = times.windows(2).map(|w| w[1] / w[0]).collect();
    println!("R-F4 growth per degree doubling: {growth:.2?}");
    assert!(
        growth.iter().all(|g| (2.5..=4.5).contains(g)),
        "each degree doubling multiplies ESC time by 2.5-4.5x: {growth:?}"
    );
}
