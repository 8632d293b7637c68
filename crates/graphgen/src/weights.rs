//! Weight assignment: turn boolean structure into weighted graphs.

use gbtl_sparse::{CooMatrix, CsrMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Replace every stored entry with a uniform random integer weight in
/// `[lo, hi]` (deterministic per seed and per coordinate, so symmetric
/// edges get symmetric weights).
pub fn uniform_u32(coo: &CooMatrix<bool>, lo: u32, hi: u32, seed: u64) -> CooMatrix<u32> {
    assert!(lo <= hi, "weight range inverted");
    let mut out = CooMatrix::with_capacity(coo.nrows(), coo.ncols(), coo.nnz());
    for (i, j, _) in coo.iter() {
        // coordinate-hashed seed: (i,j) and (j,i) get different but
        // deterministic weights; use min/max for symmetric weights instead.
        let mut rng = StdRng::seed_from_u64(
            seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (j as u64).wrapping_mul(0xD1B54A32D192ED03),
        );
        out.push(i, j, rng.gen_range(lo..=hi));
    }
    out
}

/// Symmetric variant of [`uniform_u32`]: `(i, j)` and `(j, i)` get equal
/// weights (hash by the unordered pair).
pub fn uniform_u32_symmetric(coo: &CooMatrix<bool>, lo: u32, hi: u32, seed: u64) -> CooMatrix<u32> {
    assert!(lo <= hi, "weight range inverted");
    let mut out = CooMatrix::with_capacity(coo.nrows(), coo.ncols(), coo.nnz());
    for (i, j, _) in coo.iter() {
        out.push(i, j, symmetric_u32(i, j, lo, hi, seed));
    }
    out
}

/// [`uniform_u32_symmetric`] over a CSR structure: one weight per stored
/// entry, in storage order, equal to what the COO form gives each
/// coordinate — the values a catalog puts over the adjacency's own
/// structure with [`CsrMatrix::with_same_structure`], which shares it.
pub fn uniform_u32_symmetric_vals(csr: &CsrMatrix<bool>, lo: u32, hi: u32, seed: u64) -> Vec<u32> {
    assert!(lo <= hi, "weight range inverted");
    let mut out = Vec::with_capacity(csr.nnz());
    for (i, bounds) in csr.row_ptr().windows(2).enumerate() {
        for &j in &csr.col_idx()[bounds[0]..bounds[1]] {
            out.push(symmetric_u32(i, j, lo, hi, seed));
        }
    }
    out
}

/// The weight of the unordered pair `{i, j}`.
fn symmetric_u32(i: usize, j: usize, lo: u32, hi: u32, seed: u64) -> u32 {
    let (a, b) = (i.min(j) as u64, i.max(j) as u64);
    let mut rng = StdRng::seed_from_u64(
        seed ^ a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.wrapping_mul(0xD1B54A32D192ED03),
    );
    rng.gen_range(lo..=hi)
}

/// Uniform random `f64` weights in `[lo, hi)`.
pub fn uniform_f64(coo: &CooMatrix<bool>, lo: f64, hi: f64, seed: u64) -> CooMatrix<f64> {
    assert!(lo < hi, "weight range inverted");
    let mut out = CooMatrix::with_capacity(coo.nrows(), coo.ncols(), coo.nnz());
    for (i, j, _) in coo.iter() {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (j as u64).wrapping_mul(0xD1B54A32D192ED03),
        );
        out.push(i, j, rng.gen_range(lo..hi));
    }
    out
}

/// Constant weight (useful to run weighted algorithms on structure-only
/// graphs).
pub fn constant<T: gbtl_algebra_shim::Scalar>(coo: &CooMatrix<bool>, w: T) -> CooMatrix<T> {
    let mut out = CooMatrix::with_capacity(coo.nrows(), coo.ncols(), coo.nnz());
    for (i, j, _) in coo.iter() {
        out.push(i, j, w);
    }
    out
}

// graphgen deliberately doesn't depend on gbtl-algebra; a one-trait shim
// keeps `constant` generic without the dependency.
mod gbtl_algebra_shim {
    /// Minimal scalar bound mirroring `gbtl_algebra::Scalar`.
    pub trait Scalar: Copy + Default + Send + Sync + PartialEq + std::fmt::Debug + 'static {}
    impl<T> Scalar for T where T: Copy + Default + Send + Sync + PartialEq + std::fmt::Debug + 'static {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring;

    #[test]
    fn weights_in_range_and_deterministic() {
        let structure = ring(16);
        let w1 = uniform_u32(&structure, 1, 255, 9);
        let w2 = uniform_u32(&structure, 1, 255, 9);
        assert_eq!(w1, w2);
        assert!(w1.iter().all(|(_, _, v)| (1..=255).contains(&v)));
    }

    #[test]
    fn symmetric_weights_match_across_directions() {
        let structure = ring(16);
        let w = uniform_u32_symmetric(&structure, 1, 1000, 4);
        for (i, j, v) in w.iter() {
            let back = w.iter().find(|&(a, b, _)| a == j && b == i).unwrap();
            assert_eq!(back.2, v, "weight asymmetry on ({i},{j})");
        }
        // the CSR form gives every stored entry the COO form's weight
        let csr = CsrMatrix::from_coo(structure, |a, _| a);
        let by_coo = CsrMatrix::from_coo(w, |a, _| a);
        assert_eq!(uniform_u32_symmetric_vals(&csr, 1, 1000, 4), by_coo.vals());
    }

    #[test]
    fn f64_and_constant() {
        let structure = ring(8);
        let f = uniform_f64(&structure, 0.5, 2.0, 3);
        assert!(f.iter().all(|(_, _, v)| (0.5..2.0).contains(&v)));
        let c = constant(&structure, 7u8);
        assert!(c.iter().all(|(_, _, v)| v == 7));
    }
}
