//! The paper's figures that the modeled clock decides, as assertions.
//!
//! cuda-sim's charges are arithmetic over the operands, so a shape the
//! modeled device draws is deterministic and belongs in the test suite,
//! not in a one-off table: a model change that flips one fails here.

use gbtl::algebra::Second;
use gbtl::algorithms::adjacency;
use gbtl::graphgen::{erdos_renyi, symmetrize, Rmat};
use gbtl::prelude::*;

/// `experiments a1`'s graphs: undirected RMAT and Erdős–Rényi at the same
/// vertex and edge budget, every stored entry 1.0.
fn graph(rmat: bool, scale: u32) -> Matrix<f64> {
    let (edge_factor, seed) = (16, 5);
    let coo = match rmat {
        true => Rmat::new(scale, edge_factor).seed(seed).generate(),
        false => erdos_renyi(1 << scale, (1 << scale) * edge_factor, seed),
    };
    let a = adjacency(symmetrize(&coo));
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
    let [scalar, vector, ell, hyb] = spmv_txns(&graph(true, 12));
    assert!(
        vector < scalar && scalar < hyb && hyb < ell,
        "rmat12: vector {vector} < scalar {scalar} < HYB {hyb} < ELL {ell}"
    );
    let [scalar, vector, ell, _] = spmv_txns(&graph(false, 12));
    assert!(
        ell < vector && vector < scalar,
        "er12: ELL {ell} < vector {vector} < scalar {scalar}"
    );
}
