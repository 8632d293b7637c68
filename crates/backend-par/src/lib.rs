//! # gbtl-backend-par — a scheduler over the sequential row kernels
//!
//! Multi-threaded GraphBLAS ops on a pool of persistent parked helper
//! threads plus the calling thread ([`ThreadPool`]), with a hard guarantee
//! parallel runtimes usually give up: **output is bit-identical to
//! `gbtl-backend-seq` at every thread count** (see the one documented
//! caveat below). It holds because this crate computes almost nothing
//! itself.
//!
//! ## One CPU kernel source
//!
//! Every row-oriented kernel of `gbtl-backend-seq` has a row-range form
//! (`mxm_rows`, `mxm_masked_rows`, `mxv_rows`, `ewise_add_mat_rows`, …).
//! Behind each of [`mxm`], [`mxm_masked`], [`mxv`], [`ewise_add_mat`],
//! [`ewise_mult_mat`], [`select_mat`] and [`reduce_rows`] is one path: cut
//! the rows nnz-balanced, run the *sequential* kernel on each cut, stitch
//! the fragments in row order (`schedule`). Each output row is computed by
//! the sequential kernel itself — same accumulator, same visit order — and
//! a row never straddles two cuts, so no schedule can change a bit.
//!
//! Two kernels are this crate's own, because they are different
//! algorithms with no row-range form:
//!
//! * [`transpose`] is a counting sort per range of output rows.
//! * Scalar [`reduce_mat`]-style folds use **fixed 4096-element blocks**
//!   (never sized by thread count), so the combining tree is identical on
//!   any machine. For exactly associative monoids (integers, booleans,
//!   min/max) this equals the seq fold bit-for-bit; floating-point `+`/`×`
//!   reassociate deterministically (the standard parallel-BLAS caveat).
//!
//! Push-direction `vxm` is not here: it has no row-range form either, and
//! the column-range kernel that stood in for one cost more than it spread
//! (see `mxv`'s module doc). A parallel context runs the sequential `vxm`.
//!
//! Work is split nnz-balanced (binary search over `row_ptr`, the CPU
//! analogue of merge-path) and oversplit 4× per worker so the
//! work-sharing blocks in [`ThreadPool`] can rebalance power-law rows.
//!
//! Thread count comes from `GBTL_NUM_THREADS`, else
//! `available_parallelism`; `ThreadPool::with_threads` pins it explicitly.

// the one lifetime erasure in `pool` is this crate's only such block
#![deny(unsafe_op_in_unsafe_fn)]

mod ewise;
mod mxm;
mod mxv;
pub mod partition;
mod pool;
mod reduce;
mod schedule;
mod transpose;
mod unary;

pub use ewise::{ewise_add_mat, ewise_add_vec, ewise_mult_mat, ewise_mult_vec};
pub use mxm::{mxm, mxm_masked};
pub use mxv::mxv;
pub use pool::{PoolStats, ThreadPool};
pub use reduce::{reduce_mat, reduce_rows, reduce_sparse_vec, reduce_vec, REDUCE_BLOCK};
pub use transpose::transpose;
pub use unary::{apply_dense_vec, apply_mat, apply_vec, select_mat, select_mat_op};
