//! Betweenness centrality — Brandes' algorithm in GraphBLAS form.

use gbtl_algebra::{PlusFirst, PlusSecond};
use gbtl_core::{
    no_accum, Backend, Context, Descriptor, Direction, DirectionPolicy, GblasError, Matrix, Result,
    Vector,
};

use crate::traverse::Traversal;
use crate::util::check_traversal;

/// Betweenness-centrality contribution of shortest paths from the given
/// sources (batch Brandes; pass all vertices for exact BC).
///
/// Per source: a forward BFS sweep counts shortest paths per vertex with
/// `vxm` on `(+, first)` (keeping per-level frontiers), then a backward
/// sweep accumulates dependencies level by level with `mxv` on
/// `(+, second)` — the `(+, ×)` products over a matrix of ones, read off
/// the boolean adjacency itself. All products run on the backend; the level
/// bookkeeping is host-side, mirroring GBTL's `bc_update`.
///
/// Returns the (unnormalised) centrality score per vertex. For undirected
/// graphs the conventional score is half the returned value.
pub fn betweenness_centrality<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    sources: &[usize],
) -> Result<Vector<f64>> {
    betweenness_centrality_with_direction(ctx, a, sources, Direction::Auto)
}

/// [`betweenness_centrality`] with an explicit direction for the forward
/// sweep.
///
/// Push runs the masked `vxm` over the sparse frontier; pull runs the same
/// masked product as `mxv` over `Aᵀ` with a bitmap frontier. Either way a
/// term is the frontier's path count and both kernels accumulate each
/// output in ascending input index, so the floating-point path counts are
/// bit-identical. `Auto` pulls only where `a`'s own `Aᵀ` is resident (a
/// served graph's is, pinned at load); nothing is built here. The backward
/// sweep is a dense `mxv` on the untransposed matrix in every mode.
///
/// A source out of range is an `IndexOutOfBounds` error, raised before any
/// source is processed.
pub fn betweenness_centrality_with_direction<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    sources: &[usize],
    dir: Direction,
) -> Result<Vector<f64>> {
    let n = check_traversal("betweenness_centrality", a, sources)?;
    // path counts add up under `Plus`, which has no terminal value: a pull
    // row is never cut short, and the policy must not price it as if it were
    let policy = DirectionPolicy::for_matrix(dir, ctx, a).masked_sum();
    let forward = Traversal::new(ctx, a, policy, "bc");
    let desc_pull = Descriptor::new();

    let mut delta_total = vec![0.0f64; n];

    for &src in sources {
        // ---- forward sweep: shortest-path counts sigma, per-level fronts.
        // Paths reaching the next level are q = frontierᵀ · A, masked off
        // visited vertices; `First` pushing and `Second` pulling both read
        // the frontier's count.
        let mut sigma: Vector<f64> = Vector::new_dense(n);
        sigma.set(src, 1.0);
        let mut fronts: Vec<Vector<f64>> = vec![Vector::new(n)];
        fronts[0].set(src, 1.0);
        forward.vector(
            (PlusFirst::<f64>::new(), PlusSecond::<f64>::new()),
            src,
            1.0,
            |tally, _, q| {
                for (i, c) in q.iter() {
                    sigma.set(i, c);
                    tally.enter(i, true);
                }
                if q.nnz() > 0 {
                    fronts.push(q.clone());
                }
                Ok(q)
            },
        )?;

        // ---- backward sweep: dependency accumulation
        // delta_v = sum over successors w on next level of
        //           sigma_v / sigma_w * (1 + delta_w)
        let mut delta: Vec<f64> = vec![0.0; n];
        for lvl in (1..fronts.len()).rev() {
            // t_w = (1 + delta_w) / sigma_w for w on level `lvl`
            let mut t: Vector<f64> = Vector::new_dense(n);
            for (w, _) in fronts[lvl].iter() {
                t.set(w, (1.0 + delta[w]) / path_count(&sigma, w)?);
            }
            // pull contributions to the previous level: s = A · t
            let mut s: Vector<f64> = Vector::new_dense(n);
            ctx.mxv(
                &mut s,
                None,
                no_accum(),
                PlusSecond::<f64>::new(),
                a,
                &t,
                &desc_pull,
            )?;
            for (v, _) in fronts[lvl - 1].iter() {
                if let Some(sv) = s.get(v) {
                    delta[v] += path_count(&sigma, v)? * sv;
                }
            }
        }
        for (v, d) in delta.iter().enumerate() {
            if v != src {
                delta_total[v] += d;
            }
        }
    }

    let mut out = Vector::new_dense(n);
    for (v, &d) in delta_total.iter().enumerate() {
        out.set(v, d);
    }
    Ok(out)
}

/// The shortest-path count of `v`, a vertex some level's frontier held —
/// which the forward sweep gave one.
fn path_count(sigma: &Vector<f64>, v: usize) -> Result<f64> {
    sigma.get(v).ok_or_else(|| GblasError::InvalidValue {
        op: "betweenness_centrality",
        detail: format!("frontier vertex {v} has no path count"),
    })
}

/// Exact betweenness centrality (all sources).
pub fn betweenness_centrality_exact<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
) -> Result<Vector<f64>> {
    let sources: Vec<usize> = (0..a.nrows()).collect();
    betweenness_centrality(ctx, a, &sources)
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

    /// Reference Brandes on adjacency lists.
    fn reference_bc(a: &Matrix<bool>) -> Vec<f64> {
        let n = a.nrows();
        let mut adj = vec![Vec::new(); n];
        for (i, j, _) in a.iter() {
            adj[i].push(j);
        }
        let mut bc = vec![0.0; n];
        for s in 0..n {
            let mut stack = Vec::new();
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut sigma = vec![0.0f64; n];
            sigma[s] = 1.0;
            let mut dist = vec![i64::MAX; n];
            dist[s] = 0;
            let mut q = std::collections::VecDeque::from([s]);
            while let Some(v) = q.pop_front() {
                stack.push(v);
                for &w in &adj[v] {
                    if dist[w] == i64::MAX {
                        dist[w] = dist[v] + 1;
                        q.push_back(w);
                    }
                    if dist[w] == dist[v] + 1 {
                        sigma[w] += sigma[v];
                        preds[w].push(v);
                    }
                }
            }
            let mut delta = vec![0.0f64; n];
            while let Some(w) = stack.pop() {
                for &v in &preds[w] {
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
                }
                if w != s {
                    bc[w] += delta[w];
                }
            }
        }
        bc
    }

    #[test]
    fn path_center_dominates() {
        // 0-1-2-3-4: vertex 2 lies on the most shortest paths.
        let edges: Vec<(usize, usize)> = (0..4).map(|v| (v, v + 1)).collect();
        let a = undirected(&edges, 5);
        let bc = betweenness_centrality_exact(&Context::sequential(), &a).unwrap();
        let score = |v: usize| bc.get(v).unwrap_or(0.0);
        assert!(score(2) > score(1));
        assert!(score(1) > score(0));
        assert_eq!(score(0), 0.0);
    }

    #[test]
    fn matches_reference_brandes() {
        let a = undirected(&[(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], 6);
        let got = betweenness_centrality_exact(&Context::sequential(), &a).unwrap();
        let expect = reference_bc(&a);
        for (v, &want) in expect.iter().enumerate() {
            let g = got.get(v).unwrap_or(0.0);
            assert!(
                (g - want).abs() < 1e-9,
                "vertex {v}: got {g}, expected {want}"
            );
        }
    }

    #[test]
    fn backends_agree() {
        let a = undirected(&[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], 4);
        let seq = betweenness_centrality_exact(&Context::sequential(), &a).unwrap();
        let cuda = betweenness_centrality_exact(&Context::cuda_default(), &a).unwrap();
        for v in 0..4 {
            let (x, y) = (seq.get(v).unwrap_or(0.0), cuda.get(v).unwrap_or(0.0));
            assert!((x - y).abs() < 1e-9, "vertex {v}");
        }
    }

    #[test]
    fn partial_sources_subset() {
        let edges: Vec<(usize, usize)> = (0..4).map(|v| (v, v + 1)).collect();
        let a = undirected(&edges, 5);
        let ctx = Context::sequential();
        let partial = betweenness_centrality(&ctx, &a, &[0]).unwrap();
        // paths from 0 go through 1, 2, 3
        assert!(partial.get(1).unwrap() > 0.0);
        assert_eq!(partial.get(0).unwrap_or(0.0), 0.0);
    }

    #[test]
    fn directions_agree_bit_identically() {
        let a = undirected(&[(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], 6);
        let ctx = Context::sequential();
        let sources: Vec<usize> = (0..6).collect();
        let push =
            betweenness_centrality_with_direction(&ctx, &a, &sources, Direction::Push).unwrap();
        let pull =
            betweenness_centrality_with_direction(&ctx, &a, &sources, Direction::Pull).unwrap();
        let auto =
            betweenness_centrality_with_direction(&ctx, &a, &sources, Direction::Auto).unwrap();
        // exact equality on f64: both kernels accumulate each output in
        // ascending input index, so the sums are bit-identical
        assert_eq!(push, pull);
        assert_eq!(push, auto);
    }

    #[test]
    fn bad_source_is_an_error() {
        let a = undirected(&[(0, 1), (1, 2)], 3);
        let got = betweenness_centrality(&Context::sequential(), &a, &[0, 3]);
        assert!(
            matches!(
                got,
                Err(gbtl_core::GblasError::IndexOutOfBounds {
                    index: 3,
                    bound: 3,
                    ..
                })
            ),
            "{got:?}"
        );
    }

    #[test]
    fn star_center_carries_everything() {
        // star: all pairs route through 0
        let a = undirected(&[(0, 1), (0, 2), (0, 3), (0, 4)], 5);
        let bc = betweenness_centrality_exact(&Context::sequential(), &a).unwrap();
        // 4 leaves: 4*3 = 12 ordered pairs through the centre
        assert!((bc.get(0).unwrap() - 12.0).abs() < 1e-9);
        for v in 1..5 {
            assert_eq!(bc.get(v).unwrap_or(0.0), 0.0);
        }
    }
}
