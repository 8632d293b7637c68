//! # gbtl-backend-par — work-stealing parallel CPU backend
//!
//! Multi-threaded GraphBLAS kernels on `std::thread::scope`, with a hard
//! guarantee the sequential backend makes easy and parallel runtimes
//! usually give up: **output is bit-identical to `gbtl-backend-seq` at
//! every thread count** (see the one documented caveat below).
//!
//! ## How determinism survives parallelism
//!
//! Every kernel partitions *output* positions, never input contributions:
//!
//! * Row-parallel ops ([`mxv`], [`mxm`], [`ewise_add_mat`], …) give each
//!   output row whole to one task, which runs the sequential per-row
//!   algorithm verbatim — same accumulator, same visit order.
//! * [`vxm`] partitions output **columns**: each task scans the whole
//!   frontier in order, narrowing adjacency rows to its column range, so
//!   per column the terms combine in frontier order, exactly as seq. The
//!   number of ranges follows the frontier's edge work
//!   ([`vxm_range_count`]); one range is the sequential kernel, inline.
//! * [`mxm`] assembles CSR with a two-pass count-then-fill: a symbolic
//!   pass counts per-row output nnz, a serial prefix sum fixes `row_ptr`,
//!   and the numeric pass writes into pre-carved disjoint slices. No
//!   atomics, no locks on the hot path, no `unsafe`.
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
mod stitch;
mod transpose;
mod unary;

pub use ewise::{ewise_add_mat, ewise_add_vec, ewise_mult_mat, ewise_mult_vec};
pub use mxm::{mxm, mxm_masked};
pub use mxv::{mxv, vxm, vxm_range_count};
pub use pool::{PoolStats, ThreadPool};
pub use reduce::{reduce_mat, reduce_rows, reduce_sparse_vec, reduce_vec, REDUCE_BLOCK};
pub use transpose::transpose;
pub use unary::{apply_dense_vec, apply_mat, apply_vec, select_mat, select_mat_op};
