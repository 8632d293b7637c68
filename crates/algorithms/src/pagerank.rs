//! PageRank with damping and dangling-vertex correction.

use gbtl_algebra::PlusSecond;
use gbtl_core::{no_accum, Backend, Context, Descriptor, GblasError, Matrix, Result, Vector};
use gbtl_sparse::DenseVector;

use crate::util::check_square;

/// Options for [`pagerank`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankOptions {
    /// Damping factor (probability of following a link).
    pub damping: f64,
    /// Stop when the L1 change between iterations drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        Self {
            damping: 0.85,
            tolerance: 1e-9,
            max_iters: 100,
        }
    }
}

/// Damped PageRank on a directed graph.
///
/// Per iteration: `r' = (1-d)/n + d·(Aᵀ (r ⊘ outdeg) + dangling_mass/n)`,
/// where the matrix product is one `mxv` on `(+, second)` over the boolean
/// adjacency itself, with the transpose descriptor (`second(1, x) = 1·x`,
/// so it is the `(+, ×)` product over a matrix of ones, with no such matrix
/// built and `a`'s own cached `Aᵀ` used). Dangling vertices (no out-edges)
/// spread their rank uniformly; their `r ⊘ 1` is in the operand but never
/// read. Returns `(ranks, iterations)`; ranks sum
/// to 1.
///
/// A non-square `a` is a `DimensionMismatch` error, a damping outside
/// `[0, 1)` an `InvalidValue` one.
pub fn pagerank<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    opts: PageRankOptions,
) -> Result<(Vector<f64>, usize)> {
    check_square("pagerank", a)?;
    if !(0.0..1.0).contains(&opts.damping) {
        return Err(GblasError::InvalidValue {
            op: "pagerank",
            detail: format!("damping {} is not in [0, 1)", opts.damping),
        });
    }
    let n = a.nrows();
    if n == 0 {
        return Ok((Vector::new(0), 0));
    }
    let nf = n as f64;
    let sr = PlusSecond::<f64>::new();

    // out-degrees (as f64), the row sums of the structure A·1; absent =
    // dangling. Each rank is divided by its out-degree, or by 1 where the
    // vertex dangles, so the pull's operand is fully present (ADR 0017): no
    // row of Aᵀ holds a dangling position, so the pull never reads one.
    // It stays a division: a reciprocal multiply would move the ranks' bits.
    let (desc, desc_t) = (Descriptor::new(), Descriptor::new().transpose_a());
    let mut outdeg: Vector<f64> = Vector::new(n);
    let ones = Vector::filled(n, 1.0);
    ctx.mxv(&mut outdeg, None, no_accum(), sr, a, &ones, &desc)?;
    let outdeg = outdeg.dense_view();
    let divisor: Vec<f64> = (0..n).map(|i| outdeg.get(i).unwrap_or(1.0)).collect();
    let dangling: Vec<usize> = (0..n).filter(|&i| !outdeg.contains(i)).collect();

    let mut rank = vec![1.0 / nf; n];
    let mut iters = 0usize;
    while iters < opts.max_iters {
        iters += 1;
        let scaled = rank.iter().zip(&divisor).map(|(&r, &d)| r / d).collect();
        let scaled = Vector::from(DenseVector::from_values(scaled));
        let mut contrib: Vector<f64> = Vector::new(n);
        ctx.mxv(&mut contrib, None, no_accum(), sr, a, &scaled, &desc_t)?;
        let dangling_mass: f64 = dangling.iter().map(|&i| rank[i]).sum();
        let base = (1.0 - opts.damping) / nf + opts.damping * dangling_mass / nf;

        // an absent contribution's slot holds 0.0: a row with no in-edge
        let mut delta = 0.0f64;
        for (r, &c) in rank.iter_mut().zip(contrib.dense_view().values()) {
            let next = base + opts.damping * c;
            delta += (next - *r).abs();
            *r = next;
        }
        if delta < opts.tolerance {
            break;
        }
    }
    Ok((DenseVector::from_values(rank).into(), iters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::Second;

    fn build(edges: &[(usize, usize)], n: usize) -> Matrix<bool> {
        Matrix::build(
            n,
            n,
            edges.iter().map(|&(a, b)| (a, b, true)),
            Second::new(),
        )
        .unwrap()
    }

    #[test]
    fn ranks_sum_to_one() {
        let a = build(&[(0, 1), (1, 2), (2, 0), (2, 1)], 3);
        let (r, _) = pagerank(&Context::sequential(), &a, PageRankOptions::default()).unwrap();
        let total: f64 = (0..3).map(|i| r.get(i).unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
    }

    #[test]
    fn hub_gets_higher_rank() {
        // everyone points at 3
        let a = build(&[(0, 3), (1, 3), (2, 3), (3, 0)], 4);
        let (r, _) = pagerank(&Context::sequential(), &a, PageRankOptions::default()).unwrap();
        let r3 = r.get(3).unwrap();
        for i in 0..3 {
            assert!(r3 > r.get(i).unwrap(), "vertex 3 must dominate {i}");
        }
    }

    #[test]
    fn dangling_vertices_handled() {
        // 1 has no out-edges: ranks must still sum to 1
        let a = build(&[(0, 1)], 3);
        let (r, _) = pagerank(&Context::sequential(), &a, PageRankOptions::default()).unwrap();
        let total: f64 = (0..3).map(|i| r.get(i).unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        assert!(r.get(1).unwrap() > r.get(2).unwrap());
    }

    #[test]
    fn backends_agree_closely() {
        let a = build(&[(0, 1), (1, 2), (2, 0), (0, 2), (3, 0), (2, 3)], 4);
        let (r1, _) = pagerank(&Context::sequential(), &a, PageRankOptions::default()).unwrap();
        let (r2, _) = pagerank(&Context::cuda_default(), &a, PageRankOptions::default()).unwrap();
        for i in 0..4 {
            let (a, b) = (r1.get(i).unwrap(), r2.get(i).unwrap());
            assert!((a - b).abs() < 1e-9, "vertex {i}: {a} vs {b}");
        }
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let a = build(&[(0, 1), (1, 2), (2, 0)], 3);
        let (r, _) = pagerank(&Context::sequential(), &a, PageRankOptions::default()).unwrap();
        for i in 0..3 {
            assert!((r.get(i).unwrap() - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        let ctx = Context::sequential();
        let wide = Matrix::build(2, 3, [(0usize, 2usize, true)], Second::new()).unwrap();
        assert!(pagerank(&ctx, &wide, PageRankOptions::default()).is_err());
        for damping in [1.0, -0.1, f64::NAN] {
            let opts = PageRankOptions {
                damping,
                ..PageRankOptions::default()
            };
            let err = pagerank(&ctx, &build(&[(0, 1)], 2), opts).unwrap_err();
            assert!(matches!(err, GblasError::InvalidValue { .. }), "{err}");
        }
    }

    #[test]
    fn converges_before_cap() {
        let a = build(&[(0, 1), (1, 0)], 2);
        let (_, iters) = pagerank(&Context::sequential(), &a, PageRankOptions::default()).unwrap();
        assert!(iters < 100, "took {iters}");
    }
}
