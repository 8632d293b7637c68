//! Erdős–Rényi `G(n, m)` generator — the uniform-degree counterweight to
//! RMAT.

use gbtl_sparse::CooMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sample `m` directed edges uniformly (with replacement — duplicates and
/// self-loops are left in the COO, as with [`crate::Rmat`]).
///
/// ```
/// use gbtl_graphgen::erdos_renyi;
/// let coo = erdos_renyi(100, 500, 3);
/// assert_eq!(coo.nrows(), 100);
/// assert_eq!(coo.nnz(), 500);
/// ```
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CooMatrix<bool> {
    assert!(n > 0, "graph must have at least one vertex");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, m);
    for _ in 0..m {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        coo.push(i, j, true);
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::simple;

    #[test]
    fn shape_and_count() {
        let coo = erdos_renyi(50, 200, 1);
        assert_eq!((coo.nrows(), coo.ncols(), coo.nnz()), (50, 50, 200));
    }

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(64, 256, 9), erdos_renyi(64, 256, 9));
        assert_ne!(erdos_renyi(64, 256, 9), erdos_renyi(64, 256, 10));
    }

    #[test]
    fn degrees_are_roughly_uniform() {
        let csr = simple(&erdos_renyi(1024, 1024 * 16, 3));
        let mean = csr.nnz() as f64 / csr.nrows() as f64;
        let max = csr.max_row_nnz() as f64;
        // Binomial concentration: max degree within a small factor of mean.
        assert!(max < 3.5 * mean, "max {max} vs mean {mean:.1}");
    }
}
