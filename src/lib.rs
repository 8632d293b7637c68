#![warn(missing_docs)]

//! GBTL-RS: GraphBLAS graph algorithms and primitives with sequential and
//! simulated-GPU backends.
//!
//! A Rust reproduction of *GBTL-CUDA: Graph Algorithms and Primitives for
//! GPUs* (Zhang, Misurda, Zalewski, McMillan, Lumsdaine — GABB'16). See
//! `README.md` for the tour, `DESIGN.md` for the system inventory and
//! hardware substitutions, and `EXPERIMENTS.md` for the reproduced
//! evaluation.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`core`] — the GraphBLAS frontend (`Context`, `Matrix`, `Vector`, ops)
//! * [`algebra`] — semirings, monoids, operators
//! * [`algorithms`] — BFS, SSSP, PageRank, triangles, CC, MIS, MST, …
//! * [`graphgen`] — RMAT, Erdős–Rényi, meshes, small-world generators
//! * [`sparse`] — COO/CSR/ELL/HYB containers, vectors, Matrix Market I/O
//! * [`gpu_sim`] — the simulated CUDA device and its primitives
//! * [`trace`] — the one observability crate: the span emit point and its
//!   sinks (per-context op ring and reports, sampled span trees with
//!   Chrome export, and the metrics registry — also re-exported as
//!   [`metrics`])
//! * [`util`] — shared JSON parsing/emission, env-knob helpers, and the
//!   nearest-rank percentile definition
//! * [`backend_seq`] / [`backend_par`] / [`backend_cuda`] — the three
//!   backends (sequential reference, work-stealing parallel CPU,
//!   simulated CUDA)
//!
//! ```
//! use gbtl::prelude::*;
//!
//! // Build a graph, run BFS on the simulated GPU.
//! let coo = gbtl::graphgen::Rmat::new(6, 8).seed(1).generate();
//! let a = gbtl::algorithms::adjacency(gbtl::graphgen::symmetrize(&coo));
//! let ctx = Context::cuda_default();
//! let levels = gbtl::algorithms::bfs_levels(&ctx, &a, 0, Direction::Auto).unwrap();
//! assert_eq!(levels.get(0), Some(0));
//! ```

pub use gbtl_algebra as algebra;
pub use gbtl_algorithms as algorithms;
pub use gbtl_backend_cuda as backend_cuda;
pub use gbtl_backend_par as backend_par;
pub use gbtl_backend_seq as backend_seq;
pub use gbtl_core as core;
pub use gbtl_gpu_sim as gpu_sim;
pub use gbtl_graphgen as graphgen;
pub use gbtl_sparse as sparse;
pub use gbtl_trace as trace;
pub use gbtl_trace::metrics;
pub use gbtl_util as util;

/// The names most programs need.
pub mod prelude {
    pub use gbtl_algebra::{
        LorLand, MaxMin, MaxPlus, MinFirst, MinPlus, MinSecond, Monoid, PlusPair, PlusTimes,
        Semiring,
    };
    pub use gbtl_algorithms::Direction;
    pub use gbtl_core::{
        no_accum, Backend, Context, CudaBackend, Descriptor, GpuConfig, Matrix, ParBackend,
        SeqBackend, SpmvKernel, TraceMode, Vector,
    };
}
