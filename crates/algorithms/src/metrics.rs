//! Graph metrics: degrees, density, degree centrality.

use gbtl_algebra::PlusSecond;
use gbtl_core::{no_accum, Backend, Context, Descriptor, Matrix, Result, Vector};

/// Row sums of the structure, `A·1` on `(+, second)` over the boolean
/// matrix itself (`Aᵀ·1` with the transpose descriptor).
fn degrees<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    desc: Descriptor,
) -> Result<Vector<u64>> {
    let (n_out, n_in) = if desc.transpose_a {
        (a.ncols(), a.nrows())
    } else {
        (a.nrows(), a.ncols())
    };
    let (mut deg, ones) = (Vector::new(n_out), Vector::filled(n_in, 1));
    let sr = PlusSecond::<u64>::new();
    ctx.mxv(&mut deg, None, no_accum(), sr, a, &ones, &desc)?;
    Ok(deg)
}

/// Out-degree of every vertex (absent = degree 0).
pub fn out_degrees<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>) -> Result<Vector<u64>> {
    degrees(ctx, a, Descriptor::new())
}

/// In-degree of every vertex (absent = degree 0).
pub fn in_degrees<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>) -> Result<Vector<u64>> {
    degrees(ctx, a, Descriptor::new().transpose_a())
}

/// Edge density of a directed graph: `nnz / (n·(n-1))`.
pub fn graph_density(a: &Matrix<bool>) -> f64 {
    let n = a.nrows();
    if n < 2 {
        return 0.0;
    }
    a.nnz() as f64 / (n * (n - 1)) as f64
}

/// Degree centrality: out-degree normalised by `n - 1`.
pub fn degree_centrality<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>) -> Result<Vector<f64>> {
    let n = a.nrows();
    let deg = out_degrees(ctx, a)?;
    let scale = if n > 1 { (n - 1) as f64 } else { 1.0 };
    let mut out = Vector::new(n);
    for (i, d) in deg.iter() {
        out.set(i, d as f64 / scale);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::Second;

    fn digraph() -> Matrix<bool> {
        Matrix::build(
            4,
            4,
            [
                (0usize, 1usize, true),
                (0, 2, true),
                (0, 3, true),
                (1, 0, true),
                (2, 0, true),
            ],
            Second::new(),
        )
        .unwrap()
    }

    #[test]
    fn degrees() {
        let ctx = Context::sequential();
        let out = out_degrees(&ctx, &digraph()).unwrap();
        assert_eq!(out.get(0), Some(3));
        assert_eq!(out.get(1), Some(1));
        assert_eq!(out.get(3), None); // sink

        let inn = in_degrees(&ctx, &digraph()).unwrap();
        assert_eq!(inn.get(0), Some(2));
        assert_eq!(inn.get(3), Some(1));
    }

    #[test]
    fn density_and_centrality() {
        let a = digraph();
        assert!((graph_density(&a) - 5.0 / 12.0).abs() < 1e-12);
        let c = degree_centrality(&Context::sequential(), &a).unwrap();
        assert_eq!(c.get(0), Some(1.0));
        assert!((c.get(1).unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn backends_agree() {
        let a = digraph();
        assert_eq!(
            out_degrees(&Context::sequential(), &a).unwrap(),
            out_degrees(&Context::cuda_default(), &a).unwrap()
        );
        assert_eq!(
            in_degrees(&Context::sequential(), &a).unwrap(),
            in_degrees(&Context::cuda_default(), &a).unwrap()
        );
    }
}
