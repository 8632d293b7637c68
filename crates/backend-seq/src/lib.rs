#![warn(missing_docs)]

//! Sequential reference backend for GBTL-RS.
//!
//! One straightforward, cache-friendly CPU implementation of every
//! GraphBLAS operation, mirroring GBTL's `sequential` backend. It serves
//! three roles:
//!
//! 1. the *baseline* every experiment compares the simulated-CUDA backend
//!    against (exactly the comparison the paper makes);
//! 2. the *oracle* for differential tests of the CUDA backend;
//! 3. a perfectly usable backend in its own right for small graphs.
//!
//! Every row-oriented kernel (`mxm`, `mxm_masked`, `mxv`, the matrix eWise
//! merges, `select_mat`, `reduce_rows`) is written once, in a `*_rows` form
//! that computes a range of output rows (see [`RowChunk`]); the
//! whole-matrix function is that form over `0..m`, and `gbtl-backend-par`
//! schedules the same form of the products and `reduce_rows` over many
//! ranges. There is one CPU kernel source.
//!
//! All functions are pure: inputs by reference, outputs returned. Masks
//! arrive pre-resolved by the frontend — a vector mask is a `VecMask` view
//! of packed presence bits and a complement flag, a matrix mask is a
//! structural `CsrMatrix<bool>` — so backends never see descriptors.

mod build;
mod ewise;
mod extract;
mod mxm;
mod mxv;
mod reduce;
mod rows;
mod unary;

pub use build::build;
pub use ewise::{
    ewise_add_mat, ewise_add_mat_rows, ewise_add_vec, ewise_mult_mat, ewise_mult_mat_rows,
    ewise_mult_vec, ewise_mult_vec_rows, merge_union,
};
pub use extract::{assign_mat, assign_vec, extract_mat, extract_vec};
pub use mxm::{kronecker, mxm, mxm_masked, mxm_masked_rows, mxm_rows};
pub use mxv::{early_exits, early_exits_stacked, mxv, row_dot, vxm, FoldKind, RowFold};
pub use reduce::{reduce_mat, reduce_rows, reduce_rows_range, reduce_sparse_vec, reduce_vec};
pub use rows::{stitch_rows, RowChunk};
pub use unary::{
    apply_dense_vec, apply_mat, apply_vec, select_mat, select_mat_op, select_mat_rows,
    select_vec_op,
};
