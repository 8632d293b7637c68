//! Widest (maximum-bottleneck) paths — the `(max, min)` semiring at work.
//!
//! Literally the delta-relaxation loop of [`crate::sssp`](fn@crate::sssp)
//! (`Relaxation`), run on a different algebra: path "length" is the
//! *minimum* capacity along the path, and we keep the *maximum* over
//! paths. Swapping the semiring is the whole change — the GraphBLAS
//! selling point the paper leads with.

use gbtl_algebra::{Bounded, MaxMin, Scalar};
use gbtl_core::{Backend, Context, Direction, Matrix, Result, Vector};

use crate::sssp::Relaxation;

/// Maximum-bottleneck capacity from `src` to every reachable vertex over a
/// non-negative capacity matrix.
///
/// `widest[v]` is the largest `c` such that some path from `src` to `v`
/// uses only edges of capacity ≥ `c`; `widest[src]` is the domain maximum
/// (an empty path has unbounded bottleneck). Absent = unreachable. `src`
/// out of range is an `IndexOutOfBounds` error. Every round pushes.
pub fn widest_path<B, T>(ctx: &Context<B>, a: &Matrix<T>, src: usize) -> Result<Vector<T>>
where
    B: Backend,
    T: Scalar + PartialOrd + Bounded,
{
    let relaxation = Relaxation {
        name: "widest_path",
        semiring: MaxMin::<T>::new(),
        seed: T::max_bound(),
        better: |cand, old| cand > old,
    };
    relaxation.run(ctx, a, src, Direction::Push)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::Second;

    /// Capacity network:
    /// 0 -(10)-> 1 -(3)-> 3, 0 -(4)-> 2 -(4)-> 3, 1 -(8)-> 2
    fn network() -> Matrix<u32> {
        Matrix::build(
            5,
            5,
            [
                (0usize, 1usize, 10u32),
                (1, 3, 3),
                (0, 2, 4),
                (2, 3, 4),
                (1, 2, 8),
            ],
            Second::new(),
        )
        .unwrap()
    }

    #[test]
    fn picks_maximum_bottleneck_route() {
        let ctx = Context::sequential();
        let w = widest_path(&ctx, &network(), 0).unwrap();
        assert_eq!(w.get(0), Some(u32::MAX));
        assert_eq!(w.get(1), Some(10));
        // to 2: direct 4 vs 0->1->2 = min(10,8) = 8
        assert_eq!(w.get(2), Some(8));
        // to 3: 0->1->3 = 3; 0->2->3 = 4; 0->1->2->3 = min(10,8,4) = 4
        assert_eq!(w.get(3), Some(4));
        assert_eq!(w.get(4), None, "vertex 4 unreachable");
    }

    #[test]
    fn matches_reference_maximin() {
        // reference: Dijkstra-like maximin on a small random-ish graph
        let edges = [
            (0usize, 1usize, 5u32),
            (0, 2, 9),
            (1, 2, 2),
            (1, 3, 7),
            (2, 3, 6),
            (2, 4, 1),
            (3, 4, 8),
            (4, 0, 3),
        ];
        let a = Matrix::build(5, 5, edges.iter().copied(), Second::new()).unwrap();
        let ctx = Context::sequential();
        let got = widest_path(&ctx, &a, 0).unwrap();

        // brute force over all simple paths (n=5 is tiny)
        fn dfs(
            adj: &[Vec<(usize, u32)>],
            v: usize,
            bottleneck: u32,
            seen: &mut Vec<bool>,
            best: &mut Vec<u32>,
        ) {
            if bottleneck > best[v] {
                best[v] = bottleneck;
            }
            for &(u, c) in &adj[v] {
                if !seen[u] {
                    seen[u] = true;
                    dfs(adj, u, bottleneck.min(c), seen, best);
                    seen[u] = false;
                }
            }
        }
        let mut adj = vec![Vec::new(); 5];
        for &(i, j, c) in &edges {
            adj[i].push((j, c));
        }
        let mut best = vec![0u32; 5];
        let mut seen = vec![false; 5];
        seen[0] = true;
        dfs(&adj, 0, u32::MAX, &mut seen, &mut best);

        for (v, &want) in best.iter().enumerate().skip(1) {
            assert_eq!(got.get(v).unwrap_or(0), want, "vertex {v}");
        }
    }

    #[test]
    fn backends_agree() {
        let a = network();
        let seq = widest_path(&Context::sequential(), &a, 0).unwrap();
        let cuda = widest_path(&Context::cuda_default(), &a, 0).unwrap();
        assert_eq!(seq, cuda);
    }

    #[test]
    fn bad_source_or_shape_is_an_error() {
        let ctx = Context::sequential();
        assert!(widest_path(&ctx, &network(), 5).is_err());
        assert!(widest_path(&ctx, &Matrix::<u32>::new(2, 3), 0).is_err());
    }

    #[test]
    fn isolated_source() {
        let a = Matrix::<u32>::new(3, 3);
        let w = widest_path(&Context::sequential(), &a, 2).unwrap();
        assert_eq!(w.nnz(), 1);
        assert_eq!(w.get(2), Some(u32::MAX));
    }
}
