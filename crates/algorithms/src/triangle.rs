//! Triangle counting — the cheapest of three masked products, chosen by
//! their multiply-add counts.

use gbtl_algebra::{PlusMonoid, PlusPair, TriL, TriU};
use gbtl_core::{no_accum, Backend, Context, Descriptor, Matrix, Result};

use crate::util::check_square;

/// A way to write the triangle count as one masked product of the strictly
/// lower / upper triangles `L`, `U = Lᵀ` of the adjacency. Each counts every
/// triangle `a < b < c` once, at the wedge around one of its vertices `k`;
/// a row-wise product then costs, with `down(k)` / `up(k)` the neighbours
/// of `k` below / above it (DESIGN.md, "structure-only operands"):
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Formulation {
    /// `C<L> = L·L` (as `C<U> = U·U`): `k = b`, `Σ up(k)·down(k)`
    /// multiply-adds — never the dearest of the three.
    LL,
    /// `C<L> = L·Lᵀ = L·U`, Cohen's: `k = a`, `Σ up(k)²` — dear when the
    /// hubs have low ids, cheapest under an ascending-degree labelling.
    LLt,
    /// `C<U> = U·Uᵀ = U·L`: `k = c`, `Σ down(k)²` — the mirror image.
    UUt,
}

/// The multiply-adds of [`Formulation::LL`], `LLt` and `UUt` on `a`, in
/// that order — O(n log d) from the row lengths either side of the diagonal.
pub fn formulation_flops(a: &Matrix<bool>) -> [u64; 3] {
    let mut flops = [0u64; 3];
    for k in 0..a.nrows() {
        let cols = a.csr().row(k).0;
        let below = cols.partition_point(|&j| j < k);
        let on_diagonal = usize::from(cols.get(below) == Some(&k));
        let (down, up) = (below as u64, (cols.len() - below - on_diagonal) as u64);
        flops[0] += up * down;
        flops[1] += up * up;
        flops[2] += down * down;
    }
    flops
}

/// Count the triangles of an *undirected* graph (symmetric boolean
/// adjacency, no self-loops) by the [`Formulation`] with the fewest
/// multiply-adds — the SpGEMM analogue of the traversals' edge-cost
/// direction rule, and like it the same on every backend.
///
/// The product runs on `(+, pair)` over the boolean triangles themselves:
/// no typed copy, and both operands are selected from `a`, so no transpose
/// is built either.
pub fn triangle_count<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>) -> Result<u64> {
    triangle_count_as(ctx, a, None)
}

/// [`triangle_count`] by a given formulation (`None`: the cheapest). The
/// count does not depend on it.
pub fn triangle_count_as<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    form: Option<Formulation>,
) -> Result<u64> {
    use Formulation::{LLt, UUt, LL};
    check_square("triangle_count", a)?;
    let flops = formulation_flops(a);
    let cheapest = [LL, LLt, UUt]
        .into_iter()
        .min_by_key(|&f| flops[f as usize]);
    let form = form.or(cheapest).expect("three candidates");
    // mask and left operand are one triangle, the right operand the other
    // (or, for `LL`, the same again)
    let (left, right) = match form {
        LL => (ctx.select_mat_new(TriL, a), None),
        LLt => (
            ctx.select_mat_new(TriL, a),
            Some(ctx.select_mat_new(TriU, a)),
        ),
        UUt => (
            ctx.select_mat_new(TriU, a),
            Some(ctx.select_mat_new(TriL, a)),
        ),
    };
    let mut c = Matrix::new(a.nrows(), a.ncols());
    ctx.note_next_op(|| {
        let [ll, llt, uut] = flops;
        format!(
            "form={form:?} flops={} of LL={ll} LLt={llt} UUt={uut}",
            flops[form as usize]
        )
    });
    ctx.mxm(
        &mut c,
        Some(&left),
        no_accum(),
        PlusPair::<u64>::new(),
        &left,
        right.as_ref().unwrap_or(&left),
        &Descriptor::new(),
    )?;
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
    fn every_formulation_counts_the_same() {
        // hubs at low ids: `up` is heavy-tailed, so Cohen's `LLt` is dearest
        let mut edges = Vec::new();
        for hub in 0..3 {
            for v in hub + 1..12 {
                edges.push((hub, v));
            }
        }
        edges.extend([(5, 9), (9, 11), (5, 11), (7, 8)]);
        let a = undirected(&edges, 12);
        assert_eq!(formulation_flops(&a), [41, 308, 116]);
        let ctx = Context::sequential();
        let want = triangle_count(&ctx, &a).unwrap();
        for form in [Formulation::LL, Formulation::LLt, Formulation::UUt] {
            assert_eq!(triangle_count_as(&ctx, &a, Some(form)).unwrap(), want);
        }
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
