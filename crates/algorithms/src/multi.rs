//! Multi-source traversals: k concurrent searches batched into one
//! matrix-matrix product per level.
//!
//! The classic GraphBLAS batching win: k frontier *vectors* stacked as the
//! rows of a k×n frontier *matrix* `F` turn k `vxm` calls per level into a
//! single `mxm` — `N = F ⊕.⊗ A` computes, for every batch member `r` at
//! once, exactly the product the solo traversal computes for its frontier
//! (`N[r, j] = ⊕_i F[r, i] ⊗ A[i, j]`). The per-level op count drops from
//! k to 1, amortizing dispatch, trace, and workspace overhead across the
//! batch; the arithmetic per member is unchanged.
//!
//! We stack **rows**, not columns: CSR storage is row-major and the push
//! product `F · A` resolves both operands over the zero-copy path (no
//! transpose of either side), so k×n is the natural layout — the
//! transposed view of the paper's n×k formulation. The host pushes every
//! level: the pull orientation `Aᵀ·Fᵀ` is the same `mxm` over more edges
//! and won on neither clock (docs/adr/0009). A device is charged the
//! cheaper of that push and one k-stacked pull, priced from the level's
//! result with `Aᵀ` resident (docs/adr/0015).
//!
//! Demultiplexing is row extraction: member `r`'s answer is row `r` of the
//! accumulated state, returned as its own [`Vector`] so callers can compare
//! it (bit-for-bit) against the solo kernel's output. The correctness bar
//! for the whole subsystem is exactly that: for every member, the result
//! equals [`bfs_levels`](crate::bfs_levels) / [`sssp`](fn@crate::sssp) from
//! that source — duplicate sources simply become identical rows, and `k=1`
//! is the solo traversal written as a one-row matrix.
//!
//! The solo BFS pushes its complemented `visited` mask into `vxm`/`mxv`.
//! A fused level computes the unmasked `N = F·A` and filters it in place,
//! straight off its CSR: against a k×n visited bitmap (BFS) or with the
//! solo kernel's improvement merge per row (SSSP). Either way it keeps
//! exactly the entries the solo level keeps, so every level and distance
//! value is identical by construction. Why the fused product carries no
//! mask: docs/adr/0011.

use gbtl_algebra::{Bounded, LorLand, Scalar};
use gbtl_core::{Backend, Context, Matrix, Result, Vector};
use gbtl_sparse::DenseVector;

use crate::sssp::{shortest_paths, DefaultZero};
use crate::traverse::Traversal;
use crate::util::check_traversal;

/// Level-synchronous BFS from every source in `sources` at once; returns
/// one per-vertex level vector per source (`sources[r]` maps to entry `r`),
/// each bit-identical to [`bfs_levels`](crate::bfs_levels) from the same
/// source.
///
/// One push `mxm` `N = F ⊕.⊗ A` over the boolean semiring per level on the
/// row-stacked frontier; the host never pulls a fused level (docs/adr/0009).
/// Its level records carry the batch's aggregate work.
///
/// A non-square `a` is a `DimensionMismatch` error, a source out of range
/// an `IndexOutOfBounds` error.
pub fn bfs_levels_multi<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    sources: &[usize],
) -> Result<Vec<Vector<u64>>> {
    let n = check_traversal("bfs_levels_multi", a, sources)?;
    let k = sources.len();
    let mut levels: Vec<Vector<u64>> = (0..k).map(|_| Vector::new_dense(n)).collect();
    for (r, &src) in sources.iter().enumerate() {
        levels[r].set(src, 0);
    }

    let semirings = (LorLand::new(), LorLand::new());
    Traversal::batch(ctx, a, "bfs_multi").fused(
        semirings,
        sources,
        true,
        true,
        // host-side visited filter: keeps what the solo kernel's
        // complemented mask keeps, across all k rows in one row-major pass
        |tally, depth, r, j, _| {
            let fresh = tally.visit(r, j);
            if fresh {
                levels[r].set(j, depth);
                tally.enter(j, true);
            }
            fresh
        },
    )?;
    Ok(levels)
}

/// Delta Bellman–Ford SSSP from every source in `sources` at once; returns
/// one per-vertex distance vector per source, each bit-identical to
/// [`sssp`](fn@crate::sssp) from the same source.
///
/// One unmasked push `mxm` on the `(min, +)` semiring per round over the
/// row-stacked frontier (frontier values are the members' current
/// distances), followed by the same host-side improvement merge the solo
/// kernel performs — run per row. Rows converge independently: a member
/// whose frontier empties contributes an empty row and no further work.
pub fn sssp_multi<B, T>(
    ctx: &Context<B>,
    a: &Matrix<T>,
    sources: &[usize],
) -> Result<Vec<Vector<T>>>
where
    B: Backend,
    T: Scalar + PartialOrd + Bounded + DefaultZero + std::ops::Add<Output = T>,
{
    let relaxation = shortest_paths::<T>("sssp_multi");
    let (name, seed) = (relaxation.name, relaxation.seed);
    let n = check_traversal(name, a, sources)?;
    let k = sources.len();
    let mut dist: Vec<DenseVector<T>> = (0..k).map(|_| DenseVector::new(n)).collect();
    for (r, &src) in sources.iter().enumerate() {
        dist[r].set(src, seed);
    }

    let semirings = (relaxation.semiring, relaxation.semiring);
    Traversal::batch(ctx, a, name).fused(
        semirings,
        sources,
        seed,
        false,
        |tally, _, r, j, cand| relaxation.merge(tally, &mut dist[r], j, cand),
    )?;
    Ok(dist.into_iter().map(Vector::from).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs_levels, sssp, Direction};
    use gbtl_algebra::Second;

    /// 0-1-2-3 path plus a 4-5 disconnected pair; undirected.
    fn path_graph() -> Matrix<bool> {
        let edges = [(0usize, 1usize), (1, 2), (2, 3), (4, 5)];
        let mut triples = Vec::new();
        for &(a, b) in &edges {
            triples.push((a, b, true));
            triples.push((b, a, true));
        }
        Matrix::build(6, 6, triples, Second::new()).unwrap()
    }

    /// Weighted digraph matching the solo sssp tests.
    fn weighted() -> Matrix<u32> {
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
    fn bfs_multi_matches_solo_per_column() {
        let a = path_graph();
        let ctx = Context::sequential();
        let sources = [0usize, 3, 4, 1];
        let multi = bfs_levels_multi(&ctx, &a, &sources).unwrap();
        assert_eq!(multi.len(), sources.len());
        for (r, &src) in sources.iter().enumerate() {
            let solo = bfs_levels(&ctx, &a, src, Direction::Push).unwrap();
            assert_eq!(multi[r], solo, "source {src}");
        }
    }

    #[test]
    fn duplicate_sources_yield_identical_rows() {
        let a = path_graph();
        let ctx = Context::sequential();
        let multi = bfs_levels_multi(&ctx, &a, &[2, 2, 2]).unwrap();
        assert_eq!(multi[0], multi[1]);
        assert_eq!(multi[1], multi[2]);
        let solo = bfs_levels(&ctx, &a, 2, Direction::Push).unwrap();
        assert_eq!(multi[0], solo);
    }

    #[test]
    fn k1_degenerates_to_solo() {
        let a = path_graph();
        let ctx = Context::sequential();
        let multi = bfs_levels_multi(&ctx, &a, &[1]).unwrap();
        let solo = bfs_levels(&ctx, &a, 1, Direction::Push).unwrap();
        assert_eq!(multi, vec![solo]);
        assert!(bfs_levels_multi(&ctx, &a, &[]).unwrap().is_empty());
    }

    #[test]
    fn sssp_multi_matches_solo_per_column() {
        let a = weighted();
        let ctx = Context::sequential();
        let sources = [0usize, 2, 4, 0];
        let multi = sssp_multi(&ctx, &a, &sources).unwrap();
        for (r, &src) in sources.iter().enumerate() {
            let solo = sssp(&ctx, &a, src).unwrap();
            assert_eq!(multi[r], solo, "source {src}");
        }
        // known answers from the solo suite, through the batched path
        assert_eq!(multi[0].get(1), Some(5));
        assert_eq!(multi[0].get(3), Some(6));
        assert_eq!(multi[2].nnz(), 1, "isolated source reaches only itself");
    }

    #[test]
    fn backends_agree_on_multi() {
        let a = path_graph();
        let w = weighted();
        let sources = [0usize, 1, 2];
        let seq_b = bfs_levels_multi(&Context::sequential(), &a, &sources).unwrap();
        let cuda_b = bfs_levels_multi(&Context::cuda_default(), &a, &sources).unwrap();
        assert_eq!(seq_b, cuda_b);
        let seq_s = sssp_multi(&Context::sequential(), &w, &sources).unwrap();
        let cuda_s = sssp_multi(&Context::cuda_default(), &w, &sources).unwrap();
        assert_eq!(seq_s, cuda_s);
    }

    #[test]
    fn bad_source_is_an_error() {
        let ctx = Context::sequential();
        assert!(bfs_levels_multi(&ctx, &path_graph(), &[0, 99]).is_err());
        assert!(sssp_multi(&ctx, &weighted(), &[5]).is_err());
    }
}
