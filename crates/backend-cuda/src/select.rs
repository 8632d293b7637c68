//! `select` and `kronecker` on the device. Each result is the sequential
//! backend's; the device is charged the pipeline GBTL-CUDA runs for it.

use gbtl_algebra::{BinaryOp, Scalar, SelectOp};
use gbtl_gpu_sim::{primitives as prim, Gpu, KernelTally};
use gbtl_sparse::{CsrMatrix, SparseVector};

use crate::util::{charge_compress, charge_expand_row_ids, charge_stream_kernel};

/// Keep matrix entries passing the predicate — the device keys the
/// triples, runs a flags → compact pipeline over the `(key, value)` pairs
/// and recompresses the survivors.
pub fn select_mat<T, P>(gpu: &Gpu, a: &CsrMatrix<T>, op: P) -> CsrMatrix<T>
where
    T: Scalar,
    P: SelectOp<T>,
{
    let c = gbtl_backend_seq::select_mat_op(a, op);
    charge_expand_row_ids(gpu, a.nrows(), a.nnz());
    charge_stream_kernel(gpu, "select_key", a.nnz(), 24, 24);
    prim::compact::charge_compaction::<(u64, T)>(gpu, a.nnz(), c.nnz());
    charge_compress(gpu, a.nrows(), c.nnz());
    c
}

/// Keep vector entries passing the predicate (column fixed at 0): a
/// `copy_if` over the `(index, value)` pairs.
pub fn select_vec<T, P>(gpu: &Gpu, u: &SparseVector<T>, op: P) -> SparseVector<T>
where
    T: Scalar,
    P: SelectOp<T>,
{
    let w = gbtl_backend_seq::select_vec_op(u, op);
    prim::compact::charge_compaction::<(usize, T)>(gpu, u.nnz(), w.nnz());
    w
}

/// Kronecker product `C = A ⊗ B` by expansion: every `(A entry, B entry)`
/// pair emits one output entry at a computable position — no sort needed
/// because the blocked emit order is already row-major.
pub fn kronecker<T, Op>(gpu: &Gpu, a: &CsrMatrix<T>, b: &CsrMatrix<T>, mul: Op) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    let out = gbtl_backend_seq::kronecker(a, b, mul);
    let nnz = out.nnz() as u64;
    let txn = gpu.config().mem_transaction_bytes as u64;
    let val_sz = std::mem::size_of::<T>() as u64;
    gpu.charge_kernel(
        "kronecker_expand",
        (a.nnz() * b.nrows()).div_ceil(256).max(1),
        KernelTally {
            warp_instructions: 4 * nnz.div_ceil(gpu.config().warp_size as u64),
            mem_transactions: ((a.nnz() as u64 + b.nnz() as u64) * (8 + val_sz)).div_ceil(txn)
                + (nnz * (8 + val_sz)).div_ceil(txn),
            atomic_ops: 0,
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{Times, TriL, ValueGe};
    use gbtl_sparse::CooMatrix;

    fn mat(t: &[(usize, usize, i64)], m: usize, n: usize) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(m, n);
        for &(i, j, v) in t {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn select_matches_seq() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 1, 5), (1, 0, -2), (2, 1, 7), (2, 2, 1)], 3, 3);
        assert_eq!(
            select_mat(&gpu, &a, TriL),
            gbtl_backend_seq::select_mat_op(&a, TriL)
        );
        assert_eq!(
            select_mat(&gpu, &a, ValueGe(1i64)),
            gbtl_backend_seq::select_mat_op(&a, ValueGe(1i64))
        );
    }

    #[test]
    fn select_vec_matches_seq() {
        let gpu = Gpu::default();
        let mut u = SparseVector::new(6);
        u.set(1, 4i64);
        u.set(4, -9);
        assert_eq!(
            select_vec(&gpu, &u, ValueGe(0i64)),
            gbtl_backend_seq::select_vec_op(&u, ValueGe(0i64))
        );
    }

    #[test]
    fn kronecker_matches_seq_and_charges() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 0, 2), (1, 1, 3)], 2, 2);
        let b = mat(&[(0, 1, 5)], 1, 2);
        let got = kronecker(&gpu, &a, &b, Times::new());
        assert_eq!(got, gbtl_backend_seq::kronecker(&a, &b, Times::new()));
        assert!(gpu.stats().kernels_launched > 0);
    }
}
