#![warn(missing_docs)]

//! GBTL-RS frontend: the GraphBLAS API with pluggable backends.
//!
//! This crate is the reproduction of GBTL's user-facing layer — the
//! "separation of concerns" the GBTL-CUDA paper is about. A
//! [`Context`] wraps one [`Backend`] (the sequential CPU reference, the
//! work-stealing parallel CPU or the simulated-CUDA device); graph
//! algorithms call GraphBLAS operations on the context and run unchanged
//! on each.
//!
//! ```
//! use gbtl_core::{Context, Descriptor, Matrix, Vector, no_accum};
//! use gbtl_algebra::{LorLand, Second};
//!
//! // A tiny directed graph: 0 -> 1 -> 2.
//! let edges = [(0usize, 1usize, true), (1, 2, true)];
//! let a = Matrix::build(3, 3, edges, Second::new()).unwrap();
//!
//! // One BFS step on each backend: frontier {0} expands to {1}.
//! let mut frontier = Vector::new(3);
//! frontier.set(0, true);
//!
//! for run in [
//!     {
//!         let ctx = Context::sequential();
//!         let mut next = Vector::new(3);
//!         ctx.vxm(&mut next, None, no_accum(), LorLand::new(), &frontier, &a,
//!                 &Descriptor::new()).unwrap();
//!         next
//!     },
//!     {
//!         let ctx = Context::cuda_default();
//!         let mut next = Vector::new(3);
//!         ctx.vxm(&mut next, None, no_accum(), LorLand::new(), &frontier, &a,
//!                 &Descriptor::new()).unwrap();
//!         next
//!     },
//! ] {
//!     assert!(run.contains(1) && !run.contains(0) && !run.contains(2));
//! }
//! ```

mod backend;
pub mod cache;
mod context;
mod descriptor;
mod error;
pub mod ops;
pub mod policy;
mod resolve;
mod stitch;
mod types;

pub use backend::{Backend, CudaBackend, Device, ParBackend, SeqBackend, SpmvKernel};
pub use cache::{TransposeCache, TransposeCacheStats};
pub use context::Context;
pub use descriptor::Descriptor;
pub use error::{GblasError, Result};
pub use policy::{
    direction_counters, ChosenDir, DevicePrice, Direction, DirectionCounters, DirectionPolicy,
    FrontierRep, LevelDecision, LevelWork, Product,
};
pub use resolve::OperandRef;
pub use types::{Matrix, Vector};

// Re-export the pieces callers constantly need alongside the API.
pub use gbtl_algebra as algebra;
pub use gbtl_gpu_sim::{GpuConfig, GpuStats};
pub use gbtl_trace as trace;
pub use gbtl_trace::{TraceMode, TraceReport};
pub use gbtl_util::workspace;

/// A typed "no accumulator" for the `accum` parameter of any operation.
///
/// `Option<Op>` needs a concrete `Op` even for `None`; this helper supplies
/// one (`Second<T>`, never invoked).
pub fn no_accum<T: gbtl_algebra::Scalar>() -> Option<gbtl_algebra::Second<T>> {
    None
}
