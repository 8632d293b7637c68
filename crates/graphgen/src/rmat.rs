//! RMAT / Kronecker generator (Graph500 parameters).

use gbtl_sparse::CooMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Graph500 RMAT partition probability `a`.
pub const RMAT_A: f64 = 0.57;
/// Graph500 RMAT partition probability `b`.
pub const RMAT_B: f64 = 0.19;
/// Graph500 RMAT partition probability `c`.
pub const RMAT_C: f64 = 0.19;

/// Recursive-matrix (RMAT) generator.
///
/// Produces `edge_factor · 2^scale` directed edges over `2^scale` vertices
/// with a skewed (power-law-ish) degree distribution — the canonical
/// GraphBLAS-on-GPU stress workload. Duplicates and self-loops are left in
/// the COO (`gbtl_algorithms::adjacency` drops them).
///
/// ```
/// use gbtl_graphgen::Rmat;
/// let coo = Rmat::new(8, 8).seed(42).generate();
/// assert_eq!(coo.nrows(), 256);
/// assert_eq!(coo.nnz(), 256 * 8);
/// ```
#[derive(Debug, Clone)]
pub struct Rmat {
    scale: u32,
    edge_factor: usize,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
    noise: f64,
}

impl Rmat {
    /// `2^scale` vertices, `edge_factor` edges per vertex, Graph500
    /// probabilities, seed 1.
    pub fn new(scale: u32, edge_factor: usize) -> Self {
        Self {
            scale,
            edge_factor,
            a: RMAT_A,
            b: RMAT_B,
            c: RMAT_C,
            seed: 1,
            noise: 0.1,
        }
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the partition probabilities (`d = 1 - a - b - c`).
    pub fn probabilities(mut self, a: f64, b: f64, c: f64) -> Self {
        assert!(a + b + c < 1.0 + 1e-9, "probabilities must sum below 1");
        self.a = a;
        self.b = b;
        self.c = c;
        self
    }

    /// Per-level multiplicative noise (0 disables; Graph500 uses ~0.1 to
    /// smooth the degree staircase).
    pub fn noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// Number of vertices (`2^scale`).
    pub fn nvertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of generated edges.
    pub fn nedges(&self) -> usize {
        self.nvertices() * self.edge_factor
    }

    /// Generate the edge list.
    pub fn generate(&self) -> CooMatrix<bool> {
        if self.noise > 0.0 {
            // jitter each quadrant probability per level
            let (lo, span) = (1.0 - self.noise, 2.0 * self.noise);
            self.generate_with(|p, rng| p * (lo + span * rng.gen::<f64>()))
        } else {
            self.generate_with(|p, _| p)
        }
    }

    /// The generator loop, with the per-level jitter of a probability
    /// chosen once for the whole run.
    fn generate_with(&self, jitter: impl Fn(f64, &mut StdRng) -> f64) -> CooMatrix<bool> {
        let n = self.nvertices();
        let m = self.nedges();
        let d = 1.0 - self.a - self.b - self.c;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut coo = CooMatrix::with_capacity(n, n, m);
        for _ in 0..m {
            let (mut r, mut c) = (0usize, 0usize);
            for _ in 0..self.scale {
                let a = jitter(self.a, &mut rng);
                let b = jitter(self.b, &mut rng);
                let cq = jitter(self.c, &mut rng);
                let total = a + b + cq + jitter(d, &mut rng);
                let x = rng.gen::<f64>() * total;
                // quadrants [0, a) top-left, [a, a+b) top-right,
                // [a+b, a+b+cq) bottom-left, the rest bottom-right; the
                // draw is random, so compares beat a branch chain
                let (ab, abc) = (a + b, a + b + cq);
                let down = x >= ab;
                let right = (x >= a) & ((x < ab) | (x >= abc));
                r = (r << 1) | usize::from(down);
                c = (c << 1) | usize::from(right);
            }
            coo.push(r, c, true);
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::simple;

    #[test]
    fn sizes_match_parameters() {
        let g = Rmat::new(6, 4).seed(7);
        assert_eq!(g.nvertices(), 64);
        let coo = g.generate();
        assert_eq!((coo.nrows(), coo.ncols()), (64, 64));
        assert_eq!(coo.nnz(), 256);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = Rmat::new(7, 8).seed(123).generate();
        let b = Rmat::new(7, 8).seed(123).generate();
        assert_eq!(a, b);
        let c = Rmat::new(7, 8).seed(124).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn degrees_are_skewed() {
        // RMAT's defining property: max degree far above the mean.
        let csr = simple(&Rmat::new(10, 16).seed(5).generate());
        let mean = csr.nnz() as f64 / csr.nrows() as f64;
        let max = csr.max_row_nnz() as f64;
        assert!(
            max > 6.0 * mean,
            "expected skew: max {max} vs mean {mean:.1}"
        );
    }

    #[test]
    fn uniform_probabilities_are_not_skewed() {
        let csr = simple(
            &Rmat::new(10, 16)
                .probabilities(0.25, 0.25, 0.25)
                .noise(0.0)
                .seed(5)
                .generate(),
        );
        let mean = csr.nnz() as f64 / csr.nrows() as f64;
        let max = csr.max_row_nnz() as f64;
        assert!(
            max < 4.0 * mean,
            "uniform RMAT: max {max} vs mean {mean:.1}"
        );
    }
}
