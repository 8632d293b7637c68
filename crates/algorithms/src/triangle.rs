//! Triangle counting — the middle-vertex masked product `C<L> = L·L`.

use gbtl_algebra::{PlusMonoid, PlusPair, TriL};
use gbtl_core::{no_accum, Backend, Context, Descriptor, Matrix, Result};

use crate::util::check_square;

/// Count the triangles of an *undirected* graph (symmetric boolean
/// adjacency, no self-loops).
///
/// With `L` the strictly lower triangle, `C<L> = L·L` on `(+, pair)` counts
/// every triangle `a < b < c` once, at the wedge around its middle vertex
/// `b`: `Σ up(k)·down(k)` multiply-adds with `up(k)` / `down(k)` the
/// neighbours above / below `k` — never the dearest beside Cohen's `L·Lᵀ`
/// (`Σ up(k)²`) and its mirror `U·Uᵀ` (`Σ down(k)²`), and the cheapest on
/// every generated graph measured (DESIGN.md, "structure-only operands").
/// The product runs over the boolean triangle itself: no typed copy, and
/// both operands are the one `L`, so no transpose is built either.
///
/// A device is charged the cheaper of that product and `C'<L> = L·Lᵀ`,
/// whose dot reads `L`'s own rows where `L·L`'s first transposes `L`
/// (docs/adr/0016): both count each triangle once, at its lowest vertex
/// for `L·Lᵀ`, so their sums agree.
pub fn triangle_count<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>) -> Result<u64> {
    check_square("triangle_count", a)?;
    let l = ctx.select_mat_new(TriL, a);
    let mut c = Matrix::new(a.nrows(), a.ncols());
    let sr = PlusPair::<u64>::new();
    let run = || ctx.mxm(&mut c, Some(&l), no_accum(), sr, &l, &l, &Descriptor::new());
    ctx.priced_masked_mxm::<u64, _, _>(&l, &l, &l, run)?;
    Ok(ctx
        .reduce_mat_scalar(PlusMonoid::<u64>::new(), &c)
        .unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::Second;

    fn undirected(edges: &[(usize, usize)], n: usize) -> Matrix<bool> {
        let mut triples = Vec::new();
        for &(a, b) in edges {
            triples.push((a, b, true));
            triples.push((b, a, true));
        }
        Matrix::build(n, n, triples, Second::new()).unwrap()
    }

    #[test]
    fn single_triangle() {
        let a = undirected(&[(0, 1), (1, 2), (0, 2)], 3);
        assert_eq!(triangle_count(&Context::sequential(), &a).unwrap(), 1);
    }

    #[test]
    fn toy_graph_has_two() {
        let a = undirected(&[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)], 5);
        assert_eq!(triangle_count(&Context::sequential(), &a).unwrap(), 2);
    }

    #[test]
    fn triangle_free_graph() {
        // 4-cycle
        let a = undirected(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        assert_eq!(triangle_count(&Context::sequential(), &a).unwrap(), 0);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in i + 1..5 {
                edges.push((i, j));
            }
        }
        let a = undirected(&edges, 5);
        // C(5,3) = 10
        assert_eq!(triangle_count(&Context::sequential(), &a).unwrap(), 10);
    }

    #[test]
    fn backends_agree() {
        let a = undirected(&[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4), (0, 4)], 5);
        let seq = triangle_count(&Context::sequential(), &a).unwrap();
        let cuda = triangle_count(&Context::cuda_default(), &a).unwrap();
        assert_eq!(seq, cuda);
        // {0,1,2}, {2,3,4}, {0,2,4}
        assert_eq!(seq, 3);
    }

    #[test]
    fn non_square_is_an_error() {
        let a = Matrix::<bool>::new(3, 4);
        assert!(triangle_count(&Context::sequential(), &a).is_err());
    }

    #[test]
    fn empty_graph() {
        let a = Matrix::<bool>::new(4, 4);
        assert_eq!(triangle_count(&Context::sequential(), &a).unwrap(), 0);
    }
}
