//! The charges of `select` and `kronecker`: the pipeline GBTL-CUDA runs for
//! each.

use gbtl_algebra::Scalar;
use gbtl_gpu_sim::{primitives as prim, Gpu, KernelTally};
use gbtl_sparse::{CsrMatrix, SparseVector};

use crate::util::{charge_compress, charge_expand_row_ids, charge_stream_kernel};

/// Keep the entries of `a` passing the predicate, into `c`: the device
/// keys the triples, runs a flags → compact pipeline over the `(key,
/// value)` pairs and recompresses the survivors.
pub fn select_mat<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>, c: &CsrMatrix<T>) {
    charge_expand_row_ids(gpu, a.nrows(), a.nnz());
    charge_stream_kernel(gpu, "select_key", a.nnz(), 24, 24);
    prim::compact::charge_compaction::<(u64, T)>(gpu, a.nnz(), c.nnz());
    charge_compress(gpu, a.nrows(), c.nnz());
}

/// Keep the entries of `u` passing the predicate, into `w`: a `copy_if`
/// over the `(index, value)` pairs.
pub fn select_vec<T: Scalar>(gpu: &Gpu, u: &SparseVector<T>, w: &SparseVector<T>) {
    prim::compact::charge_compaction::<(usize, T)>(gpu, u.nnz(), w.nnz());
}

/// Kronecker product `c = A ⊗ B` by expansion: every `(A entry, B entry)`
/// pair emits one output entry at a computable position — no sort needed
/// because the blocked emit order is already row-major.
pub fn kronecker<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>, b: &CsrMatrix<T>, c: &CsrMatrix<T>) {
    let nnz = c.nnz() as u64;
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
}
