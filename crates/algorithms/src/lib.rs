#![warn(missing_docs)]

//! Graph algorithms written against the GBTL-RS GraphBLAS API.
//!
//! Every algorithm takes a [`Context`](gbtl_core::Context) generic over the
//! backend — the same source runs on the sequential CPU and the simulated
//! CUDA device, which is the paper's central demonstration. The suite
//! mirrors the algorithm library that shipped with GBTL:
//!
//! * [`bfs`] — breadth-first search (levels and parents; push/pull/auto)
//! * [`sssp`] — single-source shortest paths (Bellman–Ford on min-plus)
//! * [`pagerank`] — damped PageRank with dangling-mass correction
//! * [`triangle`] — triangle counting (the masked product `C<L> = L·L`)
//! * [`widest`] — widest (maximum-bottleneck) paths on `(max, min)`
//! * [`cc`] — connected components (min-label propagation)
//! * [`coloring`] — greedy graph coloring (Luby MIS rounds)
//! * [`mis`] — maximal independent set (Luby's algorithm)
//! * [`mst`] — minimum-spanning-forest weight (Borůvka rounds)
//! * [`multi`] — multi-source BFS/SSSP: k traversals, one `mxm` per level
//! * [`bc`] — betweenness centrality (batch Brandes)
//! * [`ktruss`] — k-truss decomposition
//! * [`metrics`] — degrees, density, centrality helpers
//! * [`cluster`] — peer-pressure clustering
//!
//! ```
//! use gbtl_core::Context;
//! use gbtl_algorithms::{bfs_levels, triangle_count, Direction, adjacency};
//! use gbtl_sparse::CooMatrix;
//!
//! // a triangle plus a tail: 0-1-2-0, 2-3
//! let mut coo = CooMatrix::new(4, 4);
//! for &(a, b) in &[(0, 1), (1, 2), (0, 2), (2, 3)] {
//!     coo.push(a, b, true);
//!     coo.push(b, a, true);
//! }
//! let g = adjacency(coo);
//!
//! // identical results on either backend
//! for levels in [
//!     bfs_levels(&Context::sequential(), &g, 0, Direction::Auto).unwrap(),
//!     bfs_levels(&Context::cuda_default(), &g, 0, Direction::Auto).unwrap(),
//! ] {
//!     assert_eq!(levels.get(3), Some(2));
//! }
//! assert_eq!(triangle_count(&Context::cuda_default(), &g).unwrap(), 1);
//! ```

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod cluster;
pub mod coloring;
pub mod ktruss;
pub mod metrics;
pub mod mis;
pub mod mst;
pub mod multi;
pub mod pagerank;
pub mod sssp;
mod traverse;
pub mod triangle;
mod util;
pub mod widest;

pub use bc::{
    betweenness_centrality, betweenness_centrality_exact, betweenness_centrality_with_direction,
};
pub use bfs::{bfs_levels, bfs_parents, Direction};
pub use cc::connected_components;
pub use cluster::peer_pressure;
pub use coloring::greedy_color;
pub use ktruss::{k_truss, max_truss};
pub use metrics::{degree_centrality, graph_density, in_degrees, out_degrees};
pub use mis::maximal_independent_set;
pub use mst::mst_weight;
pub use multi::{bfs_levels_multi, sssp_multi};
pub use pagerank::pagerank;
pub use sssp::{sssp, sssp_with_direction};
pub use triangle::triangle_count;
pub use util::{adjacency, pattern_matrix, tril, triu};
pub use widest::widest_path;
