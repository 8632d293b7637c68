#![warn(missing_docs)]

//! Simulated-CUDA backend for GBTL-RS.
//!
//! The paper's GPU backend, rebuilt on [`gbtl_gpu_sim`]: every GraphBLAS
//! operation is either a hand-written SIMT kernel (the two CSR SpMV kernels
//! in [`spmv`], ELL and HYB in [`ell`]) or a composition of Thrust/CUSP-style device primitives
//! (ESC SpGEMM in [`spmm`], tagged-sort elementwise merges in [`ewise`],
//! sort-based transpose/build in [`ops`]). Operations that the original
//! backend never ported run as host fallbacks with the device↔host
//! round-trip charged ([`fallback`]).
//!
//! Every operation is differentially tested against
//! [`gbtl_backend_seq`] — same semiring, same inputs, identical outputs.

pub mod ell;
pub mod ewise;
pub mod fallback;
pub mod ops;
pub mod select;
pub mod spmm;
pub mod spmv;
pub mod util;

pub use ell::{mxv_ell, mxv_hyb};
pub use ewise::{ewise_add_mat, ewise_add_vec, ewise_mult_mat, ewise_mult_vec};
pub use fallback::{assign_mat, assign_vec, extract_mat, extract_vec};
pub use ops::{
    apply_dense_vec, apply_mat, apply_vec, build_csr, reduce_mat, reduce_rows, reduce_sparse_vec,
    reduce_vec, transpose,
};
pub use select::{kronecker, select_mat, select_vec};
pub use spmm::{mxm, mxm_masked};
pub use spmv::{mxv, vxm, SpmvKernel};

use gbtl_gpu_sim::{Gpu, KernelTally};

/// Charge one bandwidth-shaped kernel that streams `n` elements, reading
/// `read_bytes_per_elem` and writing `write_bytes_per_elem` per element.
pub(crate) fn charge_stream_kernel(
    gpu: &Gpu,
    name: &'static str,
    n: usize,
    read_bytes_per_elem: usize,
    write_bytes_per_elem: usize,
) {
    let txn = gpu.config().mem_transaction_bytes as u64;
    gpu.charge_kernel(
        name,
        n.div_ceil(256).max(1),
        KernelTally {
            warp_instructions: 2 * (n as u64).div_ceil(gpu.config().warp_size as u64),
            mem_transactions: ((n * read_bytes_per_elem) as u64).div_ceil(txn)
                + ((n * write_bytes_per_elem) as u64).div_ceil(txn),
            atomic_ops: 0,
        },
    );
}
