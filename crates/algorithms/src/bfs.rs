//! Breadth-first search: levels and parents, push/pull/auto direction.

use gbtl_algebra::{LorLand, MinFirst};
use gbtl_core::{no_accum, Backend, Context, Descriptor, DirectionPolicy, Matrix, Result, Vector};

use gbtl_sparse::DenseVector;

use crate::traverse::Traversal;
use crate::util::check_traversal;

pub use gbtl_core::Direction;

/// Level-synchronous BFS from `src`; returns per-vertex levels
/// (`src` = 0), absent for unreachable vertices.
///
/// Each step is one masked product over the boolean semiring: the
/// complemented `visited` mask keeps the frontier from re-entering settled
/// vertices. The direction (push `vxm` vs pull `mxv` over cached `Aᵀ`) and
/// the frontier representation (index list vs bitmap) are chosen per level
/// by the traversal driver's [`DirectionPolicy`] — forced by `dir`, or
/// adaptive under [`Direction::Auto`], from the edges each side would
/// touch. Every choice produces the identical level sets (the masked
/// products compute the same entries either way), so all modes are
/// bit-identical; only the work per level changes.
///
/// `src` out of range is an `IndexOutOfBounds` error.
pub fn bfs_levels<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    src: usize,
    dir: Direction,
) -> Result<Vector<u64>> {
    let n = check_traversal("bfs_levels", a, &[src])?;
    let mut levels = DenseVector::new(n);
    levels.set(src, 0);

    let policy = DirectionPolicy::for_matrix(dir, ctx, a);
    Traversal::new(ctx, a, policy, "bfs").vector(
        (LorLand::new(), LorLand::new()),
        src,
        true,
        |tally, depth, next| {
            for (i, _) in next.iter() {
                levels.set(i, depth);
                tally.enter(i, true);
            }
            Ok(next)
        },
    )?;
    Ok(levels.into())
}

/// BFS parent tree from `src`: `parents[v]` is the predecessor of `v` on
/// some shortest (hop-count) path; `parents[src] = src`. Absent for
/// unreachable vertices.
///
/// Runs on the `MinFirst` semiring over `u64` vertex ids, the boolean
/// adjacency as its second operand: each frontier vertex pushes *its own
/// id* along out-edges, and `min` picks the smallest candidate parent
/// deterministically.
///
/// `src` out of range is an `IndexOutOfBounds` error.
pub fn bfs_parents<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    src: usize,
) -> Result<Vector<u64>> {
    let n = check_traversal("bfs_parents", a, &[src])?;
    let desc = Descriptor::new().complement_mask().replace();

    let mut parents: Vector<u64> = Vector::new_dense(n);
    let mut visited: Vector<bool> = Vector::new_dense(n);
    // frontier carries the *id* of each frontier vertex
    let mut frontier: Vector<u64> = Vector::new(n);
    frontier.set(src, src as u64);
    visited.set(src, true);
    parents.set(src, src as u64);

    while frontier.nnz() > 0 {
        let mut next: Vector<u64> = Vector::new(n);
        ctx.vxm(
            &mut next,
            Some(&visited),
            no_accum(),
            MinFirst::<u64>::new(),
            &frontier,
            a,
            &desc,
        )?;
        let mut new_frontier: Vector<u64> = Vector::new(n);
        for (i, parent) in next.iter() {
            visited.set(i, true);
            parents.set(i, parent);
            new_frontier.set(i, i as u64); // next hop pushes its own id
        }
        frontier = new_frontier;
    }
    Ok(parents)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn levels_on_path() {
        for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
            let ctx = Context::sequential();
            let levels = bfs_levels(&ctx, &path_graph(), 0, dir).unwrap();
            assert_eq!(levels.get(0), Some(0), "{dir:?}");
            assert_eq!(levels.get(1), Some(1));
            assert_eq!(levels.get(2), Some(2));
            assert_eq!(levels.get(3), Some(3));
            assert_eq!(levels.get(4), None, "unreachable has no level");
            assert_eq!(levels.get(5), None);
        }
    }

    #[test]
    fn backends_agree_on_levels() {
        let a = path_graph();
        let seq = bfs_levels(&Context::sequential(), &a, 1, Direction::Push).unwrap();
        let cuda = bfs_levels(&Context::cuda_default(), &a, 1, Direction::Push).unwrap();
        assert_eq!(seq, cuda);
        assert_eq!(seq.get(3), Some(2));
    }

    #[test]
    fn parents_form_a_valid_tree() {
        let a = path_graph();
        let ctx = Context::sequential();
        let parents = bfs_parents(&ctx, &a, 0).unwrap();
        assert_eq!(parents.get(0), Some(0));
        assert_eq!(parents.get(1), Some(0));
        assert_eq!(parents.get(2), Some(1));
        assert_eq!(parents.get(3), Some(2));
        assert_eq!(parents.get(4), None);
    }

    #[test]
    fn parents_agree_across_backends() {
        let a = path_graph();
        let seq = bfs_parents(&Context::sequential(), &a, 0).unwrap();
        let cuda = bfs_parents(&Context::cuda_default(), &a, 0).unwrap();
        assert_eq!(seq, cuda);
    }

    #[test]
    fn push_and_pull_agree_on_cycle() {
        // undirected 5-cycle: symmetric adjacency so pull's Aᵀ equals A
        let mut triples = Vec::new();
        for v in 0..5usize {
            let u = (v + 1) % 5;
            triples.push((v, u, true));
            triples.push((u, v, true));
        }
        let a = Matrix::build(5, 5, triples, Second::new()).unwrap();
        let ctx = Context::sequential();
        let push = bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
        let pull = bfs_levels(&ctx, &a, 0, Direction::Pull).unwrap();
        assert_eq!(push, pull);
        assert_eq!(push.get(2), Some(2));
        assert_eq!(push.get(3), Some(2));
    }

    #[test]
    fn bad_source_is_an_error() {
        let ctx = Context::sequential();
        let err = bfs_levels(&ctx, &path_graph(), 99, Direction::Push).unwrap_err();
        assert!(
            matches!(
                err,
                gbtl_core::GblasError::IndexOutOfBounds {
                    index: 99,
                    bound: 6,
                    ..
                }
            ),
            "{err}"
        );
        assert!(bfs_parents(&ctx, &path_graph(), 6).is_err());
    }
}
