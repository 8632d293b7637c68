#![warn(missing_docs)]

//! Simulated-CUDA backend for GBTL-RS: the device charges.
//!
//! The paper's GPU backend, rebuilt on [`gbtl_gpu_sim`] by one rule: every
//! operation **computes its result with the [`gbtl_backend_seq`] kernel
//! and charges the device** the pipeline GBTL-CUDA runs for it. The result
//! is computed by `gbtl_core::Backend`'s default body; this crate holds
//! only what the device is charged for it, in [`charge`], one function per
//! op, each arithmetic over the operands and the result's size: push and
//! the mask resolution in `spmv`, ESC and the masked dot product in
//! `spmm`, tagged-sort elementwise merges in `ewise`, sort-based
//! transpose/build, `apply` and the reductions in `ops`, compaction-based
//! `select` in `select`, the host fallbacks' device↔host round-trips in
//! `fallback`. So results equal seq's bit for bit by construction, and
//! host time is seq's plus that arithmetic.
//!
//! The one entry point that computes is pull [`mxv`]: its four kernels
//! (CSR scalar and vector, ELL, HYB, all over the one CSR) are charged by
//! how far each row's fold walked, so it folds with seq's `RowFold` and
//! charges in one pass.

mod ewise;
mod fallback;
mod ops;
mod select;
mod spmm;
mod spmv;
mod util;

pub use spmv::{mxv, SpmvKernel, SpmvProfiles};

/// What the device is charged for each op but a pull `mxv`, given the
/// operands and the result the sequential kernel computed.
pub mod charge {
    pub use crate::ewise::{ewise_add_vec, ewise_mat, ewise_mult_vec};
    pub use crate::fallback::{csr_bytes, matrix_roundtrip, vector_roundtrip};
    pub use crate::ops::{
        apply_dense_vec, apply_mat, apply_sparse_vec, build, reduce_dense_vec, reduce_mat,
        reduce_rows, reduce_sparse_vec, transpose,
    };
    pub use crate::select::{kronecker, select_mat, select_vec};
    pub use crate::spmm::{mxm, mxm_masked};
    pub use crate::spmv::{mask_resolve, vxm};
}
