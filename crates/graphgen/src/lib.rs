#![warn(missing_docs)]

//! Synthetic graph generators for GBTL-RS workloads.
//!
//! The GBTL-CUDA era evaluated on RMAT/Kronecker graphs (skewed degrees),
//! Erdős–Rényi graphs (uniform degrees) and regular meshes (high diameter).
//! All generators are deterministic given a seed and return [`CooMatrix`]
//! adjacency structure; [`weights`] turns structure into weighted graphs.

mod canned;
mod erdos_renyi;
mod regular;
mod rmat;
mod smallworld;
pub mod weights;

pub use canned::{karate_club, triangle_toy};
pub use erdos_renyi::erdos_renyi;
pub use regular::{bipartite_complete, complete, grid_2d, path, ring, star, torus_2d};
pub use rmat::{Rmat, RMAT_A, RMAT_B, RMAT_C};
pub use smallworld::watts_strogatz;

use gbtl_sparse::CooMatrix;

/// Mirror every edge, making the graph undirected (symmetric adjacency).
pub fn symmetrize(coo: &CooMatrix<bool>) -> CooMatrix<bool> {
    let mut out = CooMatrix::with_capacity(coo.nrows(), coo.ncols(), coo.nnz() * 2);
    for (i, j, v) in coo.iter() {
        out.push(i, j, v);
        if i != j {
            out.push(j, i, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_sparse::CsrMatrix;

    /// The simple graph of `coo`: loops and duplicates dropped, as
    /// `gbtl_algorithms::adjacency` builds it.
    pub(crate) fn simple(coo: &CooMatrix<bool>) -> CsrMatrix<bool> {
        let (rows, cols, _) = coo.triples();
        CsrMatrix::pattern(coo.nrows(), coo.ncols(), rows, cols)
    }

    #[test]
    fn symmetrize_mirrors() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, true);
        coo.push(1, 1, true);
        let s = symmetrize(&coo);
        let csr = simple(&s);
        assert_eq!(csr.get(0, 1), Some(true));
        assert_eq!(csr.get(1, 0), Some(true));
        assert_eq!(csr.get(1, 1), None);
    }
}
