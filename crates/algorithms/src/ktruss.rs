//! k-truss decomposition — iterated support filtering.

use gbtl_algebra::{PlusPair, ValueGe};
use gbtl_core::{no_accum, Backend, Context, Descriptor, GblasError, Matrix, Result};

use crate::util::{check_square, pattern_matrix};

/// The k-truss of an *undirected* graph: the maximal subgraph where every
/// edge participates in at least `k - 2` triangles (its *support*).
///
/// Iterates the classic GraphBLAS formulation: the masked product
/// `S<A> = A ·(+, pair) A` counts each edge's triangles; a `select` drops
/// edges with support `< k - 2`; repeat until no edge is dropped. Returns
/// the boolean adjacency of the k-truss (possibly empty). A non-square `a`
/// is a `DimensionMismatch` error, `k < 3` an `InvalidValue` one.
pub fn k_truss<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>, k: u64) -> Result<Matrix<bool>> {
    check_square("k_truss", a)?;
    if k < 3 {
        return Err(GblasError::InvalidValue {
            op: "k_truss",
            detail: format!("k-truss is defined for k >= 3, got {k}"),
        });
    }
    let n = a.nrows();
    let min_support = k - 2;

    let mut current: Matrix<u64> = pattern_matrix(ctx, a, 1u64);
    loop {
        if current.nnz() == 0 {
            break;
        }
        // structural mask = current edge set
        let mask = crate::util::Const::<u64, bool>::new(true);
        let mask = ctx.apply_mat_new(mask, &current);
        // support per edge: S<E> = E (+,pair) E
        let mut support: Matrix<u64> = Matrix::new(n, n);
        ctx.mxm(
            &mut support,
            Some(&mask),
            no_accum(),
            PlusPair::<u64>::new(),
            &current,
            &current,
            &Descriptor::new(),
        )?;
        // keep edges with enough support; edges with zero support are
        // absent in `support` and must be dropped too.
        let kept = ctx.select_mat_new(ValueGe(min_support), &support);
        let next = ctx.apply_mat_new(crate::util::Const::<u64, u64>::new(1), &kept);
        if next.nnz() == current.nnz() {
            break;
        }
        current = next;
    }
    Ok(ctx.apply_mat_new(crate::util::Const::<u64, bool>::new(true), &current))
}

/// The largest `k` for which the k-truss is non-empty (the graph's
/// trussness). Returns 2 for a triangle-free graph with edges.
pub fn max_truss<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>) -> Result<u64> {
    let mut k = 2;
    loop {
        let t = k_truss(ctx, a, k + 1)?;
        if t.nnz() == 0 {
            return Ok(k);
        }
        k += 1;
    }
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

    fn complete(n: usize) -> Matrix<bool> {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j));
            }
        }
        undirected(&edges, n)
    }

    #[test]
    fn k5_is_a_5_truss() {
        let ctx = Context::sequential();
        let k5 = complete(5);
        // in K5 every edge sits in 3 triangles -> survives up to k=5
        let t5 = k_truss(&ctx, &k5, 5).unwrap();
        assert_eq!(t5.nnz(), k5.nnz());
        let t6 = k_truss(&ctx, &k5, 6).unwrap();
        assert_eq!(t6.nnz(), 0);
        assert_eq!(max_truss(&ctx, &k5).unwrap(), 5);
    }

    #[test]
    fn pendant_edges_drop_from_3_truss() {
        // triangle 0-1-2 plus pendant 2-3
        let a = undirected(&[(0, 1), (1, 2), (0, 2), (2, 3)], 4);
        let ctx = Context::sequential();
        let t3 = k_truss(&ctx, &a, 3).unwrap();
        assert_eq!(t3.nnz(), 6); // the triangle's 3 undirected edges
        assert_eq!(t3.get(2, 3), None);
        assert_eq!(t3.get(0, 1), Some(true));
    }

    #[test]
    fn cascading_removal() {
        // two triangles sharing edge (1,2), plus a tail: 3-truss keeps both
        // triangles; a 4-truss needs every edge in 2 triangles -> only the
        // shared structure fails, everything vanishes.
        let a = undirected(&[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)], 5);
        let ctx = Context::sequential();
        let t3 = k_truss(&ctx, &a, 3).unwrap();
        assert_eq!(t3.nnz(), 10); // 5 undirected edges survive
        assert_eq!(t3.get(3, 4), None);
        let t4 = k_truss(&ctx, &a, 4).unwrap();
        assert_eq!(t4.nnz(), 0);
    }

    #[test]
    fn triangle_free_graph_has_empty_3_truss() {
        let a = undirected(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        let ctx = Context::sequential();
        assert_eq!(k_truss(&ctx, &a, 3).unwrap().nnz(), 0);
        assert_eq!(max_truss(&ctx, &a).unwrap(), 2);
    }

    #[test]
    fn backends_agree() {
        let a = undirected(
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (2, 4),
                (3, 4),
                (0, 4),
            ],
            5,
        );
        let seq = k_truss(&Context::sequential(), &a, 3).unwrap();
        let cuda = k_truss(&Context::cuda_default(), &a, 3).unwrap();
        assert_eq!(seq, cuda);
        assert_eq!(
            max_truss(&Context::sequential(), &a).unwrap(),
            max_truss(&Context::cuda_default(), &a).unwrap()
        );
    }
}
