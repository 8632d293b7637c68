//! Single-source shortest paths: Bellman–Ford over the tropical semiring.

use gbtl_algebra::{Bounded, MinPlus, Scalar, Semiring};
use gbtl_core::{Backend, Context, Direction, DirectionPolicy, Matrix, Result, Vector};

use gbtl_sparse::DenseVector;

use crate::traverse::{Tally, Traversal};
use crate::util::check_traversal;

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
/// much work each round does.
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
    shortest_paths("sssp").run(ctx, a, src, dir)
}

/// Delta relaxation from one source over any path algebra — the loop
/// [`sssp_with_direction`] and [`crate::widest_path`] both are. A path's
/// value is the `⊗` of its edges from `seed` (the empty path); each round
/// is one unmasked product of the *changed* frontier, and a candidate
/// replaces a vertex's value when it is `better`. Vertices that changed
/// form the next frontier: the product, filtered in place.
pub(crate) struct Relaxation<T, S, C> {
    /// The entry point's name: error `op` and level-span label.
    pub name: &'static str,
    pub semiring: S,
    pub seed: T,
    pub better: C,
}

/// The `(min, +)` relaxation [`sssp`] and [`crate::sssp_multi`] share.
pub(crate) fn shortest_paths<T>(
    name: &'static str,
) -> Relaxation<T, MinPlus<T>, impl Fn(T, T) -> bool>
where
    T: Scalar + PartialOrd + Bounded + DefaultZero + std::ops::Add<Output = T>,
{
    Relaxation {
        name,
        semiring: MinPlus::new(),
        seed: T::default_zero(),
        better: |cand, old| cand < old,
    }
}

impl<T: Scalar, S: Semiring<T>, C: Fn(T, T) -> bool> Relaxation<T, S, C> {
    /// Merge `cand` into `best[i]`: true when it took the slot, and `i`
    /// enters the next frontier.
    #[inline]
    pub(crate) fn merge(
        &self,
        tally: &mut Tally,
        best: &mut DenseVector<T>,
        i: usize,
        cand: T,
    ) -> bool {
        let old = best.get(i);
        let improved = old.is_none_or(|old| (self.better)(cand, old));
        if improved {
            best.set(i, cand);
            tally.enter(i, old.is_none());
        }
        improved
    }

    pub(crate) fn run<B: Backend>(
        &self,
        ctx: &Context<B>,
        a: &Matrix<T>,
        src: usize,
        dir: Direction,
    ) -> Result<Vector<T>> {
        let n = check_traversal(self.name, a, &[src])?;
        let mut best = DenseVector::new(n);
        best.set(src, self.seed);

        let policy = DirectionPolicy::for_matrix(dir, ctx, a).unmasked();
        let traversal = Traversal::new(ctx, a, policy, self.name);
        let semirings = (self.semiring, self.semiring);
        traversal.vector(semirings, src, self.seed, |tally, _, mut relax| {
            // best = eWiseAdd(best, relax, ⊕), and the entries that changed
            // it are the next frontier: the product, filtered in place. The
            // test needs old-vs-new, so it runs host-side (identically for
            // every backend).
            relax.retain(|i, cand| self.merge(tally, &mut best, i, cand));
            // a pull's product is a bitmap; the frontier goes on as an
            // index list, as a push's product already is
            Ok(if relax.is_sparse() {
                relax
            } else {
                relax.to_sparse_repr().into()
            })
        })?;
        Ok(best.into())
    }
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
