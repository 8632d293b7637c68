//! Watts–Strogatz small-world generator.

use gbtl_sparse::CooMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Watts–Strogatz: a ring lattice where each vertex connects to its `k`
/// nearest neighbours (`k` even), with each edge rewired to a random target
/// with probability `beta`. Undirected.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> CooMatrix<bool> {
    assert!(k.is_multiple_of(2) && k >= 2, "k must be even and >= 2");
    assert!(k < n, "k must be below n");
    assert!((0.0..=1.0).contains(&beta), "beta in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, n * k);
    for v in 0..n {
        for d in 1..=k / 2 {
            let mut u = (v + d) % n;
            if rng.gen::<f64>() < beta {
                // rewire to a uniform non-self target
                loop {
                    let cand = rng.gen_range(0..n);
                    if cand != v {
                        u = cand;
                        break;
                    }
                }
            }
            coo.push(v, u, true);
            coo.push(u, v, true);
        }
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::simple;

    #[test]
    fn beta_zero_is_ring_lattice() {
        let csr = simple(&watts_strogatz(10, 4, 0.0, 1));
        for v in 0..10 {
            assert_eq!(csr.row_nnz(v), 4, "vertex {v}");
        }
        assert_eq!(csr.get(0, 1), Some(true));
        assert_eq!(csr.get(0, 2), Some(true));
        assert_eq!(csr.get(0, 3), None);
    }

    #[test]
    fn rewiring_changes_structure() {
        let lattice = simple(&watts_strogatz(64, 4, 0.0, 2));
        let rewired = simple(&watts_strogatz(64, 4, 0.8, 2));
        assert_ne!(lattice, rewired);
        // edge count conserved before dedup; after dedup it can only shrink
        assert!(rewired.nnz() <= lattice.nnz());
    }

    #[test]
    fn deterministic() {
        assert_eq!(watts_strogatz(32, 4, 0.3, 7), watts_strogatz(32, 4, 0.3, 7));
    }
}
