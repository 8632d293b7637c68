//! Single-source shortest paths: Bellman–Ford over the tropical semiring.

use gbtl_algebra::{Bounded, MinPlus, Scalar};
use gbtl_core::{
    no_accum, Backend, ChosenDir, Context, Descriptor, Direction, DirectionPolicy, FrontierRep,
    LevelWork, Matrix, Result, Vector,
};

use gbtl_sparse::SparseVector;

use crate::util::{check_source, check_square};

/// Weight-domain additive identity, needed to seed the source distance
/// (`x + zero == x`).
pub trait DefaultZero {
    /// The additive identity of the weight domain.
    fn default_zero() -> Self;
}

macro_rules! impl_default_zero {
    ($($t:ty => $z:expr),*) => {$(
        impl DefaultZero for $t {
            #[inline(always)]
            fn default_zero() -> Self { $z }
        }
    )*};
}

impl_default_zero!(u8 => 0, u16 => 0, u32 => 0, u64 => 0, usize => 0,
                   i8 => 0, i16 => 0, i32 => 0, i64 => 0, isize => 0,
                   f32 => 0.0, f64 => 0.0);

/// Bellman–Ford SSSP from `src` over non-negative edge weights.
///
/// Each round relaxes every edge out of the *changed* frontier with one
/// `vxm` on the `(min, +)` semiring, then merges improvements into the
/// distance vector; improved vertices form the next frontier (the standard
/// GraphBLAS "delta" Bellman–Ford). Terminates when no distance improves —
/// at most `n` rounds on any graph without negative cycles.
///
/// Returns per-vertex distances; absent = unreachable.
pub fn sssp<B, T>(ctx: &Context<B>, a: &Matrix<T>, src: usize) -> Result<Vector<T>>
where
    B: Backend,
    T: Scalar + PartialOrd + Bounded + DefaultZero + std::ops::Add<Output = T>,
{
    sssp_with_direction(ctx, a, src, Direction::Auto)
}

/// [`sssp`] with an explicit traversal direction.
///
/// Each relaxation round is an unmasked `(min, +)` product: push runs
/// `vxm` over the sparse frontier, pull runs `mxv` over the cached `Aᵀ`
/// with a bitmap frontier. `⊗ = +` is commutative and `⊕ = min` is
/// order-independent over the same candidate multiset, so every direction
/// yields bit-identical distances — [`Direction::Auto`] only changes how
/// much work each round does. Unmasked, pull scans all of `nnz(A)` however
/// few vertices improved, so `Auto` pulls only a round whose frontier
/// carries more edges than that scan costs.
///
/// A non-square `a` is a `DimensionMismatch` error, `src` out of range an
/// `IndexOutOfBounds` error.
pub fn sssp_with_direction<B, T>(
    ctx: &Context<B>,
    a: &Matrix<T>,
    src: usize,
    dir: Direction,
) -> Result<Vector<T>>
where
    B: Backend,
    T: Scalar + PartialOrd + Bounded + DefaultZero + std::ops::Add<Output = T>,
{
    check_square("sssp", a)?;
    let n = a.nrows();
    check_source("sssp", src, n)?;
    let zero = T::default_zero();
    let policy = DirectionPolicy::for_matrix(dir, ctx, a).unmasked();
    let degrees = a.csr();
    let mut push_edges = degrees.row_nnz(src);

    let mut dist: Vector<T> = Vector::new_dense(n);
    dist.set(src, zero);
    let mut frontier: Vector<T> = Vector::new(n);
    frontier.set(src, zero);

    let desc_push = Descriptor::new();
    let desc_pull = Descriptor::new().transpose_a();
    let mut round = 0u64;
    for _round in 0..n {
        if frontier.nnz() == 0 {
            break;
        }
        round += 1;
        let frontier_nnz = frontier.nnz();
        let decision = policy.decide_on(
            ctx.backend(),
            LevelWork {
                frontier_nnz,
                unvisited: n - dist.nnz(),
                push_edges,
                pull_edges: a.nnz(),
            },
        );
        let t0 = ctx.level_start();
        match decision.rep {
            FrontierRep::Bitmap => frontier.densify(),
            FrontierRep::Sparse => frontier.sparsify(),
        }
        // Candidate distances through the frontier: one product on
        // (min, +) — `vxm` on `A` pushing, `mxv` on `Aᵀ` pulling.
        let mut relax: Vector<T> = Vector::new(n);
        match decision.dir {
            ChosenDir::Pull => ctx.mxv(
                &mut relax,
                None,
                no_accum(),
                MinPlus::<T>::new(),
                a,
                &frontier,
                &desc_pull,
            )?,
            ChosenDir::Push => ctx.vxm(
                &mut relax,
                None,
                no_accum(),
                MinPlus::<T>::new(),
                &frontier,
                a,
                &desc_push,
            )?,
        }
        // dist = eWiseAdd(dist, relax, Min), keeping the improved set as
        // the next frontier. The improvement test needs old-vs-new
        // comparison, so it runs host-side (identically for both backends).
        // `relax` iterates in index order, so the improved set assembles
        // as a sorted list: no per-entry search-and-insert.
        let (mut next_idx, mut next_vals) = (Vec::new(), Vec::new());
        push_edges = 0;
        for (i, cand) in relax.iter() {
            let improved = match dist.get(i) {
                Some(old) => cand < old,
                None => true,
            };
            if improved {
                dist.set(i, cand);
                next_idx.push(i);
                next_vals.push(cand);
                push_edges += degrees.row_nnz(i);
            }
        }
        let next = Vector::from(SparseVector::from_sorted(n, next_idx, next_vals)?);
        ctx.level_end(
            t0,
            "sssp",
            round,
            decision,
            frontier_nnz as u64,
            next.nnz() as u64,
        );
        frontier = next;
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::Second;

    /// Weighted digraph:
    /// 0 -(7)-> 1, 0 -(2)-> 2, 2 -(3)-> 1, 1 -(1)-> 3, 2 -(8)-> 3; 4 isolated.
    fn graph() -> Matrix<u32> {
        Matrix::build(
            5,
            5,
            [
                (0usize, 1usize, 7u32),
                (0, 2, 2),
                (2, 1, 3),
                (1, 3, 1),
                (2, 3, 8),
            ],
            Second::new(),
        )
        .unwrap()
    }

    #[test]
    fn shortest_distances() {
        let ctx = Context::sequential();
        let d = sssp(&ctx, &graph(), 0).unwrap();
        assert_eq!(d.get(0), Some(0));
        assert_eq!(d.get(1), Some(5)); // 0->2->1 = 2+3
        assert_eq!(d.get(2), Some(2));
        assert_eq!(d.get(3), Some(6)); // 0->2->1->3 = 6
        assert_eq!(d.get(4), None);
    }

    #[test]
    fn backends_agree() {
        let a = graph();
        let seq = sssp(&Context::sequential(), &a, 0).unwrap();
        let cuda = sssp(&Context::cuda_default(), &a, 0).unwrap();
        assert_eq!(seq, cuda);
    }

    #[test]
    fn float_weights() {
        let a = Matrix::build(
            3,
            3,
            [(0usize, 1usize, 1.5f64), (1, 2, 2.5), (0, 2, 10.0)],
            Second::new(),
        )
        .unwrap();
        let d = sssp(&Context::sequential(), &a, 0).unwrap();
        assert_eq!(d.get(2), Some(4.0));
    }

    #[test]
    fn source_only_graph() {
        let a = Matrix::<u32>::new(3, 3);
        let d = sssp(&Context::sequential(), &a, 1).unwrap();
        assert_eq!(d.get(1), Some(0));
        assert_eq!(d.nnz(), 1);
    }

    #[test]
    fn directions_agree_on_distances() {
        let a = graph();
        let ctx = Context::sequential();
        let push = sssp_with_direction(&ctx, &a, 0, Direction::Push).unwrap();
        let pull = sssp_with_direction(&ctx, &a, 0, Direction::Pull).unwrap();
        ctx.prewarm_transpose(&a);
        let auto = sssp_with_direction(&ctx, &a, 0, Direction::Auto).unwrap();
        assert_eq!(push, pull);
        assert_eq!(push, auto);
        assert_eq!(push.get(3), Some(6));
    }

    #[test]
    fn bad_source_is_an_error() {
        let err = sssp(&Context::sequential(), &graph(), 5).unwrap_err();
        assert!(
            matches!(
                err,
                gbtl_core::GblasError::IndexOutOfBounds {
                    index: 5,
                    bound: 5,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn non_square_is_an_error_on_every_backend() {
        let a = Matrix::<u32>::new(2, 3);
        let is_mismatch = |r: Result<Vector<u32>>| {
            matches!(
                r,
                Err(gbtl_core::GblasError::DimensionMismatch { op: "sssp", .. })
            )
        };
        assert!(is_mismatch(sssp(&Context::sequential(), &a, 0)));
        assert!(is_mismatch(sssp(&Context::parallel_with_threads(2), &a, 0)));
        assert!(is_mismatch(sssp(&Context::cuda_default(), &a, 0)));
    }

    #[test]
    fn longer_path_beats_heavy_direct_edge() {
        // 0 -(100)-> 3 direct, but 0->1->2->3 costs 3.
        let a = Matrix::build(
            4,
            4,
            [(0usize, 3usize, 100u32), (0, 1, 1), (1, 2, 1), (2, 3, 1)],
            Second::new(),
        )
        .unwrap();
        let d = sssp(&Context::sequential(), &a, 0).unwrap();
        assert_eq!(d.get(3), Some(3));
    }
}
