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
//! transposed view of the paper's n×k formulation.
//!
//! Demultiplexing is row extraction: member `r`'s answer is row `r` of the
//! accumulated state, returned as its own [`Vector`] so callers can compare
//! it (bit-for-bit) against the solo kernel's output. The correctness bar
//! for the whole subsystem is exactly that: for every member, the result
//! equals [`bfs_levels`](crate::bfs_levels) / [`sssp`](crate::sssp) from
//! that source — duplicate sources simply become identical rows, and `k=1`
//! is the solo traversal written as a one-row matrix.
//!
//! Like the solo kernels, the visited / improvement bookkeeping runs
//! host-side: the solo BFS's complemented mask computes the full product
//! and filters during the stitch, so filtering the full product here keeps
//! the set of discovered vertices — and therefore every level and distance
//! value — identical by construction.

use gbtl_algebra::{Bounded, LorLand, Scalar, Semiring};
use gbtl_core::{
    no_accum, Backend, ChosenDir, Context, Descriptor, Direction, DirectionPolicy, LevelDecision,
    Matrix, Result, Vector,
};

use crate::sssp::{shortest_paths, DefaultZero};
use crate::traverse::{Traversal, Triples};
use crate::util::check_traversal;

/// One fused level in either direction, from the batch's fresh triples.
///
/// Push materializes the k×n row-stacked frontier `F` and computes
/// `N = F ⊕.⊗ A`. Pull materializes `Fᵀ` (n×k, from the swapped triples)
/// and computes `Nᵀ = Aᵀ ⊕.⊗ Fᵀ`, resolving `Aᵀ` through the *same*
/// transpose-cache entry the solo pull kernels use — crucially it never
/// asks for the frontier's transpose via the descriptor, which would
/// insert a dead per-level entry into the LRU and evict the useful `Aᵀ`.
/// Either way the returned triples are `(r, j, v)` sorted row-major, so
/// the host-side filter below is direction-oblivious. For a commutative
/// `⊗` both orientations produce identical values
/// (`Nᵀ[j, r] = ⊕_i A[i, j] ⊗ F[r, i] = N[r, j]`).
pub(crate) fn fused_level<B: Backend, T: Scalar, S: Semiring<T>>(
    ctx: &Context<B>,
    a: &Matrix<T>,
    fresh: &[(usize, usize, T)],
    k: usize,
    sr: S,
    decision: LevelDecision,
) -> Result<Triples<T>> {
    let n = a.nrows();
    match decision.dir {
        ChosenDir::Push => {
            let frontier = Matrix::from_row_major_triples(k, n, fresh)?;
            let mut next: Matrix<T> = Matrix::new(k, n);
            ctx.mxm(
                &mut next,
                None,
                no_accum(),
                sr,
                &frontier,
                a,
                &Descriptor::new(),
            )?;
            Ok(next.iter().collect())
        }
        ChosenDir::Pull => {
            let mut swapped: Triples<T> = fresh.iter().map(|&(r, j, v)| (j, r, v)).collect();
            swapped.sort_unstable_by_key(|&(j, r, _)| (j, r));
            let f_t = Matrix::from_row_major_triples(n, k, &swapped)?;
            let mut next_t: Matrix<T> = Matrix::new(n, k);
            ctx.mxm(
                &mut next_t,
                None,
                no_accum(),
                sr,
                a,
                &f_t,
                &Descriptor::new().transpose_a(),
            )?;
            let mut out: Triples<T> = next_t.iter().map(|(j, r, v)| (r, j, v)).collect();
            out.sort_unstable_by_key(|&(r, j, _)| (r, j));
            Ok(out)
        }
    }
}

/// Level-synchronous BFS from every source in `sources` at once; returns
/// one per-vertex level vector per source (`sources[r]` maps to entry `r`),
/// each bit-identical to [`bfs_levels`](crate::bfs_levels) from the same
/// source.
///
/// One `mxm` over the boolean semiring per level on the row-stacked
/// frontier, with the direction chosen per level from the batch's
/// aggregate work (see [`bfs_levels_multi_with_direction`]).
pub fn bfs_levels_multi<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    sources: &[usize],
) -> Result<Vec<Vector<u64>>> {
    bfs_levels_multi_with_direction(ctx, a, sources, Direction::Auto)
}

/// [`bfs_levels_multi`] with an explicit direction.
///
/// The fused k×n frontier reports its **aggregate** work to a
/// [`DirectionPolicy::batched`] policy: `push_edges` is the out-degree sum
/// over every member's frontier, and on the CPU backends `Auto` never
/// prefers the fused pull (cuda-sim keeps its own rule). For the fused
/// path the decision's `rep` attribute describes the frontier
/// *orientation*: push consumes the row-stacked `F` (one sparse index list
/// per member), pull consumes the column-stacked `Fᵀ` against cached `Aᵀ`.
///
/// A non-square `a` is a `DimensionMismatch` error, a source out of range
/// an `IndexOutOfBounds` error.
pub fn bfs_levels_multi_with_direction<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    sources: &[usize],
    dir: Direction,
) -> Result<Vec<Vector<u64>>> {
    let n = check_traversal("bfs_levels_multi", a, sources)?;
    let k = sources.len();
    let mut levels: Vec<Vector<u64>> = (0..k).map(|_| Vector::new_dense(n)).collect();
    // flat k×n visited bitmap, indexed [r * n + j]
    let mut visited = vec![false; k * n];
    for (r, &src) in sources.iter().enumerate() {
        levels[r].set(src, 0);
        visited[r * n + src] = true;
    }

    let policy = DirectionPolicy::for_matrix(dir, ctx, a).batched(k);
    Traversal::new(ctx, a, policy, "bfs_multi").fused(
        LorLand::new(),
        sources,
        true,
        // host-side visited filter: the solo kernel's complemented mask,
        // applied across all k rows in one row-major pass
        |tally, depth, r, j, _| {
            let fresh = !visited[r * n + j];
            if fresh {
                visited[r * n + j] = true;
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
/// [`sssp`](crate::sssp) from the same source.
///
/// One unmasked `mxm` on the `(min, +)` semiring per round over the
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
    sssp_multi_with_direction(ctx, a, sources, Direction::Auto)
}

/// [`sssp_multi`] with an explicit direction; see
/// [`bfs_levels_multi_with_direction`] for the batch's aggregate work and
/// the fused-pull orientation.
pub fn sssp_multi_with_direction<B, T>(
    ctx: &Context<B>,
    a: &Matrix<T>,
    sources: &[usize],
    dir: Direction,
) -> Result<Vec<Vector<T>>>
where
    B: Backend,
    T: Scalar + PartialOrd + Bounded + DefaultZero + std::ops::Add<Output = T>,
{
    let relaxation = shortest_paths::<T>("sssp_multi");
    let (name, seed) = (relaxation.name, relaxation.seed);
    let n = check_traversal(name, a, sources)?;
    let k = sources.len();
    let mut dist: Vec<Vector<T>> = (0..k).map(|_| Vector::new_dense(n)).collect();
    for (r, &src) in sources.iter().enumerate() {
        dist[r].set(src, seed);
    }

    let policy = DirectionPolicy::for_matrix(dir, ctx, a).batched(k);
    Traversal::new(ctx, a, policy, name).fused(
        relaxation.semiring,
        sources,
        seed,
        |tally, _, r, j, cand| relaxation.merge(tally, &mut dist[r], j, cand),
    )?;
    Ok(dist)
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

    #[test]
    fn fused_directions_agree() {
        let a = path_graph();
        let w = weighted();
        let ctx = Context::sequential();
        let sources = [0usize, 3, 1];
        let push = bfs_levels_multi_with_direction(&ctx, &a, &sources, Direction::Push).unwrap();
        let pull = bfs_levels_multi_with_direction(&ctx, &a, &sources, Direction::Pull).unwrap();
        assert_eq!(push, pull);
        ctx.prewarm_transpose(&a);
        let auto = bfs_levels_multi_with_direction(&ctx, &a, &sources, Direction::Auto).unwrap();
        assert_eq!(push, auto);
        let push_s = sssp_multi_with_direction(&ctx, &w, &sources, Direction::Push).unwrap();
        let pull_s = sssp_multi_with_direction(&ctx, &w, &sources, Direction::Pull).unwrap();
        assert_eq!(push_s, pull_s);
        for (r, &src) in sources.iter().enumerate() {
            let solo = sssp(&ctx, &w, src).unwrap();
            assert_eq!(pull_s[r], solo, "fused pull vs solo, source {src}");
        }
    }
}
