//! # gbtl-backend-par — a scheduler over the sequential row kernels
//!
//! Multi-threaded GraphBLAS ops on `std::thread::scope`, with a hard
//! guarantee parallel runtimes usually give up: **output is bit-identical
//! to `gbtl-backend-seq` at every thread count** (see the one documented
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
//! Three kernels are this crate's own, because they are different
//! algorithms with no row-range form:
//!
//! * [`vxm`] partitions output **columns**: each task scans the whole
//!   frontier in order, narrowing adjacency rows to its column range, so
//!   per column the terms combine in frontier order, exactly as seq. The
//!   number of ranges follows the frontier's edge work
//!   ([`vxm_range_count`]); one range is the sequential kernel, inline.
//! * [`transpose`] is a counting sort per range of output rows.
//! * Scalar [`reduce_mat`]-style folds use **fixed 4096-element blocks**
//!   (never sized by thread count), so the combining tree is identical on
//!   any machine. For exactly associative monoids (integers, booleans,
//!   min/max) this equals the seq fold bit-for-bit; floating-point `+`/`×`
//!   reassociate deterministically (the standard parallel-BLAS caveat).
//!
//! Work is split nnz-balanced (binary search over `row_ptr`, the CPU
//! analogue of merge-path) and oversplit 4× per worker so the
//! work-stealing deques in [`ThreadPool`] can rebalance power-law rows.
//!
//! Thread count comes from `GBTL_NUM_THREADS`, else
//! `available_parallelism`; `ThreadPool::with_threads` pins it explicitly.

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
pub use mxv::{mxv, vxm, vxm_range_count};
pub use pool::{PoolStats, ThreadPool};
pub use reduce::{reduce_mat, reduce_rows, reduce_sparse_vec, reduce_vec, REDUCE_BLOCK};
pub use transpose::transpose;
pub use unary::{apply_dense_vec, apply_mat, apply_vec, select_mat, select_mat_op};
