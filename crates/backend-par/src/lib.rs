//! # gbtl-backend-par — a scheduler over the sequential row kernels
//!
//! Multi-threaded GraphBLAS ops on a pool of persistent parked helper
//! threads plus the calling thread ([`ThreadPool`]), with a hard guarantee
//! parallel runtimes usually give up: **output is bit-identical to
//! `gbtl-backend-seq` at every thread count**, for every op and every
//! monoid. It holds because this crate computes nothing itself.
//!
//! ## One CPU kernel source
//!
//! Every row-oriented kernel of `gbtl-backend-seq` has a row-range form
//! (`mxm_rows`, `mxm_masked_rows`, `RowFold::mxv_rows`, …). Behind each of [`mxm`],
//! [`mxm_masked`], [`mxv`] and [`reduce_rows`] is one path: cut the rows
//! nnz-balanced, run the *sequential* kernel on each cut, stitch the
//! fragments in row order (`schedule`). Each output row is computed by
//! the sequential kernel itself — same accumulator, same visit order — and
//! a row never straddles two cuts, so no schedule can change a bit.
//!
//! ## Only the kernels that earn their fan-out
//!
//! These are the ops whose parallel form measured at least 1.1× the
//! sequential one at two threads (EXPERIMENTS.md R-P26,
//! `docs/adr/0001-par-keeps-kernels-that-earn-fan-out.md`). Every other
//! `Backend` op — transpose, apply, select, the eWise merges, the scalar
//! folds, push-direction `vxm` — runs the sequential body on a parallel
//! context: a dispatch costs microseconds, and on those ops the split never
//! won that back on both graphs. Re-run `experiments p1` before adding one.
//!
//! Work is split nnz-balanced (binary search over `row_ptr`, the CPU
//! analogue of merge-path) and oversplit 4× per worker so the
//! work-sharing blocks in [`ThreadPool`] can rebalance power-law rows.
//!
//! Thread count comes from `GBTL_NUM_THREADS`, else
//! `available_parallelism`; `ThreadPool::with_threads` pins it explicitly.

// the one lifetime erasure in `pool` is this crate's only such block
#![deny(unsafe_op_in_unsafe_fn)]

mod mxm;
mod mxv;
pub mod partition;
mod pool;
mod reduce;
mod schedule;

pub use mxm::{mxm, mxm_masked};
pub use mxv::mxv;
pub use pool::{PoolStats, ThreadPool};
pub use reduce::reduce_rows;
