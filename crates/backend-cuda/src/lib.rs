#![warn(missing_docs)]

//! Simulated-CUDA backend for GBTL-RS: the device charges.
//!
//! The paper's GPU backend, rebuilt on [`gbtl_gpu_sim`] by one rule: every
//! operation **computes its result with the `gbtl_backend_seq` kernel
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
//! Pull `mxv`'s four kernels (CSR scalar and vector, ELL, HYB, all over
//! the one CSR) are charged by how far each row walked, given as the rows
//! that stopped early (seq's `early_exits` reads them off a result); the
//! kernel and the memo of per-structure profiles those
//! charges read travel with the GPU as a [`Device`].

mod ewise;
mod fallback;
mod ops;
mod select;
mod spmm;
mod spmv;
mod util;

use std::ops::Deref;

use gbtl_gpu_sim::Gpu;

pub use spmv::{SpmvKernel, SpmvProfiles};

/// What a cuda-sim op is charged on: the GPU, the pull SpMV kernel its
/// backend runs and that backend's memo of pull-kernel charge profiles
/// (ADR 0006). A borrowed view, so a price can be taken on a scratch GPU
/// with the same kernel and memo; it derefs to the GPU.
#[derive(Debug, Clone, Copy)]
pub struct Device<'a> {
    /// The GPU charged.
    pub gpu: &'a Gpu,
    /// The pull SpMV kernel policy.
    pub spmv_kernel: SpmvKernel,
    /// The pull-kernel charge profiles, built on a structure's first pull.
    pub spmv_profiles: &'a SpmvProfiles,
}

impl Deref for Device<'_> {
    type Target = Gpu;

    fn deref(&self) -> &Gpu {
        self.gpu
    }
}

/// What the device is charged for each op, given the operands and the
/// result the sequential kernel computed.
pub mod charge {
    pub use crate::ewise::{ewise_add_vec, ewise_mat, ewise_mult_vec};
    pub use crate::fallback::{csr_bytes, matrix_roundtrip, vector_roundtrip};
    pub use crate::ops::{
        apply_dense_vec, apply_mat, apply_sparse_vec, build, reduce_dense_vec, reduce_mat,
        reduce_rows, reduce_sparse_vec, transpose,
    };
    pub use crate::select::{kronecker, select_mat, select_vec};
    pub use crate::spmm::{mxm, mxm_dot, mxm_masked};
    pub use crate::spmv::{exit_rows, mask_resolve, mxv, mxv_stacked, vxm};
}
