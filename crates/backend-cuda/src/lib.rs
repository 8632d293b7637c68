#![warn(missing_docs)]

//! Simulated-CUDA backend for GBTL-RS.
//!
//! The paper's GPU backend, rebuilt on [`gbtl_gpu_sim`] by one rule: every
//! operation **computes its result with the [`gbtl_backend_seq`] kernel
//! and charges the device** the pipeline GBTL-CUDA runs for it — the four
//! pull SpMV kernels (CSR scalar and vector, ELL, HYB, all over the one
//! CSR) and push in [`spmv`], ESC and the masked dot product in [`spmm`],
//! tagged-sort elementwise merges in [`ewise`], sort-based
//! transpose/build, `apply` and the reductions in [`ops`], compaction-based
//! `select` in [`select`]. The charges are arithmetic over the operands
//! and the result's size, so results equal seq's bit for bit by
//! construction, and host time is seq's plus that arithmetic.
//!
//! The one exception: operations the original backend never ported run as
//! host fallbacks with the device↔host round-trip charged ([`fallback`]).

pub mod ewise;
pub mod fallback;
pub mod ops;
pub mod select;
pub mod spmm;
pub mod spmv;
mod util;

pub use ewise::{ewise_add_mat, ewise_add_vec, ewise_mult_mat, ewise_mult_vec};
pub use fallback::{assign_mat, assign_vec, extract_mat, extract_vec};
pub use ops::{
    apply_dense_vec, apply_mat, apply_vec, build_csr, reduce_mat, reduce_rows, reduce_sparse_vec,
    reduce_vec, transpose,
};
pub use select::{kronecker, select_mat, select_vec};
pub use spmm::{mxm, mxm_masked};
pub use spmv::{mxv, vxm, SpmvKernel, SpmvProfiles};
