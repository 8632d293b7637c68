//! The books a traversal level keeps — the inputs of every direction
//! decision — recounted from scratch.
//!
//! Each `level` record carries `frontier_nnz`, `nnz_out`, `push_edges` and
//! `pull_edges`. The traversals keep them incrementally (O(1) per vertex
//! entering a frontier); here a plain host BFS / delta relaxation rebuilds
//! every level's frontier and the totals are summed over it again:
//! `push_edges` is Σ out-degree of the frontier, `pull_edges` is Σ degree of
//! the rows unvisited before the level (masked products: BFS, BC) or
//! `nnz(A)` (unmasked: SSSP and the fused `mxm` forms), and a level's
//! `nnz_out` is the next one's `frontier_nnz`. Whatever direction a level
//! ran in, the books must read the same.

use gbtl_algorithms::{
    adjacency, betweenness_centrality_with_direction, bfs_levels, bfs_levels_multi, sssp,
    sssp_multi, sssp_with_direction, widest_path, Direction,
};
use gbtl_core::{Backend, Context, Matrix, TraceMode};
use gbtl_graphgen::{symmetrize, weights, Rmat};
use proptest::prelude::*;

/// `(algo, level, frontier_nnz, nnz_out, push_edges, pull_edges)`.
type Books = (String, u64, usize, usize, usize, usize);

/// The level records of whatever `run` traverses on `ctx`.
fn recorded<B: Backend>(ctx: &Context<B>, run: impl FnOnce()) -> Vec<Books> {
    ctx.clear_trace();
    run();
    let field = |text: &str, key: &str| -> usize {
        let rest = text.split(key).nth(1).expect("level record field");
        rest.split(' ').next().unwrap().parse().unwrap()
    };
    let spans = ctx.trace().spans;
    let levels = spans.iter().filter(|sp| sp.fields.op == "level");
    levels
        .map(|sp| {
            let label = &sp.fields.op_label;
            (
                label.split(' ').next().unwrap().to_string(),
                field(&sp.fields.dims, "level=") as u64,
                sp.fields.nnz_in as usize,
                sp.fields.nnz_out as usize,
                field(label, "push_edges="),
                field(label, "pull_edges="),
            )
        })
        .collect()
}

/// Out-neighbour lists with weights, rebuilt from the stored entries.
fn neighbours<T: gbtl_algebra::Scalar + Into<u32>>(m: &Matrix<T>) -> Vec<Vec<(usize, u32)>> {
    let mut out = vec![Vec::new(); m.nrows()];
    for (i, j, x) in m.iter() {
        out[i].push((j, x.into()));
    }
    out
}

/// BFS level sets from `src`: `fronts[d]` is the set at distance `d`, the
/// last one non-empty.
fn bfs_fronts(nbrs: &[Vec<(usize, u32)>], src: usize) -> Vec<Vec<usize>> {
    let mut seen = vec![false; nbrs.len()];
    seen[src] = true;
    let mut fronts = vec![vec![src]];
    loop {
        let mut next = Vec::new();
        for &v in fronts.last().unwrap() {
            for &(u, _) in &nbrs[v] {
                if !std::mem::replace(&mut seen[u], true) {
                    next.push(u);
                }
            }
        }
        if next.is_empty() {
            return fronts;
        }
        fronts.push(next);
    }
}

/// The changed sets of a synchronous delta Bellman–Ford from `src`:
/// `fronts[t]` holds the vertices whose distance improved in round `t`.
fn relaxation_fronts(nbrs: &[Vec<(usize, u32)>], src: usize) -> Vec<Vec<usize>> {
    let mut dist: Vec<Option<u64>> = vec![None; nbrs.len()];
    dist[src] = Some(0);
    let mut fronts = vec![vec![src]];
    loop {
        let mut cand: Vec<Option<u64>> = vec![None; nbrs.len()];
        for &v in fronts.last().unwrap() {
            for &(u, x) in &nbrs[v] {
                let through = dist[v].unwrap() + u64::from(x);
                cand[u] = Some(cand[u].map_or(through, |c| c.min(through)));
            }
        }
        let improved = |u: &usize| cand[*u].is_some_and(|c| dist[*u].is_none_or(|d| c < d));
        let next: Vec<usize> = (0..nbrs.len()).filter(improved).collect();
        if next.is_empty() {
            return fronts;
        }
        for &u in &next {
            dist[u] = cand[u];
        }
        fronts.push(next);
    }
}

#[derive(Clone, Copy)]
enum Shape {
    Masked,
    Unmasked,
}

/// The books of one traversal whose members' frontiers are `members[r][d]`,
/// summed from nothing but those sets and the neighbour lists.
fn recount(
    algo: &str,
    nbrs: &[Vec<(usize, u32)>],
    members: &[Vec<Vec<usize>>],
    shape: Shape,
) -> Vec<Books> {
    let nnz: usize = nbrs.iter().map(Vec::len).sum();
    let degree_sum = |set: &[usize]| set.iter().map(|&v| nbrs[v].len()).sum::<usize>();
    let deepest = members.iter().map(Vec::len).max().unwrap_or(0);
    let at = |r: usize, d: usize| members[r].get(d).map_or(&[][..], Vec::as_slice);
    (1..=deepest)
        .map(|d| {
            let over = |d: usize, f: &dyn Fn(&[usize]) -> usize| -> usize {
                (0..members.len()).map(|r| f(at(r, d))).sum()
            };
            let push_edges = over(d - 1, &degree_sum);
            let pull_edges = match shape {
                Shape::Masked => {
                    let visited: Vec<usize> = members[0][..d].concat();
                    nnz - degree_sum(&visited)
                }
                Shape::Unmasked => nnz,
            };
            let (nnz_in, nnz_out) = (over(d - 1, &<[usize]>::len), over(d, &<[usize]>::len));
            (
                algo.to_string(),
                d as u64,
                nnz_in,
                nnz_out,
                push_edges,
                pull_edges,
            )
        })
        .collect()
}

/// Every traversal × every direction on one backend, against the recount.
fn books_balance<B: Backend>(ctx: Context<B>, seed: u64) {
    let ctx = ctx.with_trace_mode(TraceMode::Summary);
    let structure = symmetrize(&Rmat::new(6, 4).seed(seed).generate());
    let w = Matrix::from_coo(
        weights::uniform_u32_symmetric(&structure, 1, 100, seed),
        gbtl_algebra::Min::new(),
    );
    let adj = adjacency(structure);
    // the weighted copy keeps the self loops `adjacency` drops: each
    // matrix is recounted from its own entries
    let (nbrs, w_nbrs) = (neighbours(&adj), neighbours(&w));
    ctx.seed_symmetric_transpose(&adj);
    ctx.seed_symmetric_transpose(&w);
    let src = (seed as usize * 7) % adj.nrows();
    let trio = [src, (src + 11) % adj.nrows(), src];

    for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
        let name = format!("{} {dir:?} seed {seed}", ctx.backend_name());
        let got = recorded(&ctx, || drop(bfs_levels(&ctx, &adj, src, dir).unwrap()));
        let solo = [bfs_fronts(&nbrs, src)];
        assert_eq!(
            got,
            recount("bfs", &nbrs, &solo, Shape::Masked),
            "bfs {name}"
        );

        let got = recorded(&ctx, || {
            betweenness_centrality_with_direction(&ctx, &adj, &trio, dir).unwrap();
        });
        let per_source = |&s: &usize| recount("bc", &nbrs, &[bfs_fronts(&nbrs, s)], Shape::Masked);
        let want: Vec<Books> = trio.iter().flat_map(per_source).collect();
        assert_eq!(got, want, "bc {name}");

        let got = recorded(&ctx, || {
            drop(sssp_with_direction(&ctx, &w, src, dir).unwrap())
        });
        let rounds = relaxation_fronts(&w_nbrs, src);
        assert_eq!(
            got,
            recount("sssp", &w_nbrs, &[rounds], Shape::Unmasked),
            "sssp {name}"
        );
    }
    // a fused level always pushes: one shape, the unmasked product's books
    for sources in [&trio[..1], &trio[..]] {
        let got = recorded(&ctx, || {
            drop(bfs_levels_multi(&ctx, &adj, sources).unwrap())
        });
        let members: Vec<_> = sources.iter().map(|&s| bfs_fronts(&nbrs, s)).collect();
        let want = recount("bfs_multi", &nbrs, &members, Shape::Unmasked);
        assert_eq!(got, want, "bfs_multi k={} seed {seed}", sources.len());
    }
    // one relaxation, three entry points
    let solo = sssp(&ctx, &w, src).unwrap();
    assert_eq!(sssp_multi(&ctx, &w, &[src]).unwrap(), vec![solo]);
}

/// The host pushes every fused level `F·A` (docs/adr/0009), on the
/// backend whose device would rather pull a saturated batch: cuda-sim with
/// `Aᵀ` resident, 16 hub sources on an rmat12 graph. Only the device's
/// charge may be a pull (docs/adr/0015).
#[test]
fn fused_levels_always_push_on_cuda_sim() {
    let structure = symmetrize(&Rmat::new(12, 8).seed(7).generate());
    let w = Matrix::from_coo(
        weights::uniform_u32_symmetric(&structure, 1, 255, 7),
        gbtl_algebra::Min::new(),
    );
    let adj = adjacency(structure);
    let mut by_degree: Vec<usize> = (0..adj.nrows()).collect();
    let row_ptr = adj.csr().row_ptr();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(row_ptr[v + 1] - row_ptr[v]));
    let hubs = &by_degree[..16];
    let ctx = Context::cuda_default().with_trace_mode(TraceMode::Summary);
    ctx.prewarm_transpose(&adj);
    ctx.prewarm_transpose(&w);
    ctx.clear_trace();
    bfs_levels_multi(&ctx, &adj, hubs).unwrap();
    sssp_multi(&ctx, &w, hubs).unwrap();
    let spans = ctx.trace().spans;
    let levels: Vec<&str> = spans
        .iter()
        .filter(|sp| sp.fields.op == "level")
        .map(|sp| sp.fields.op_label.as_str())
        .collect();
    for algo in ["bfs_multi ", "sssp_multi "] {
        assert!(
            levels.iter().any(|l| l.starts_with(algo)),
            "{algo}: {levels:?}"
        );
    }
    for label in levels {
        assert!(label.contains(" dir=push rep=sparse "), "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recorded_books_equal_a_recount_from_scratch(seed in 0u64..1000) {
        books_balance(Context::sequential(), seed);
        books_balance(Context::cuda_default(), seed);
    }
}

/// `widest_path` on the two capacity networks of its unit tests, every
/// source: the answers the hand-written loop gave before it became the
/// shared relaxation on `(max, min)`.
#[test]
fn widest_path_answers_are_the_parent_commits() {
    const MAX: Option<u32> = Some(u32::MAX);
    let network = [
        (0usize, 1usize, 10u32),
        (1, 3, 3),
        (0, 2, 4),
        (2, 3, 4),
        (1, 2, 8),
    ];
    let ring = [
        (0usize, 1usize, 5u32),
        (0, 2, 9),
        (1, 2, 2),
        (1, 3, 7),
        (2, 3, 6),
        (2, 4, 1),
        (3, 4, 8),
        (4, 0, 3),
    ];
    type Edges<'a> = &'a [(usize, usize, u32)];
    let answers: [(Edges, [[Option<u32>; 5]; 5]); 2] = [
        (
            &network,
            [
                [MAX, Some(10), Some(8), Some(4), None],
                [None, MAX, Some(8), Some(4), None],
                [None, None, MAX, Some(4), None],
                [None, None, None, MAX, None],
                [None, None, None, None, MAX],
            ],
        ),
        (
            &ring,
            [
                [MAX, Some(5), Some(9), Some(6), Some(6)],
                [Some(3), MAX, Some(3), Some(7), Some(7)],
                [Some(3), Some(3), MAX, Some(6), Some(6)],
                [Some(3), Some(3), Some(3), MAX, Some(8)],
                [Some(3), Some(3), Some(3), Some(3), MAX],
            ],
        ),
    ];
    for (edges, per_source) in answers {
        let a = Matrix::build(5, 5, edges.iter().copied(), gbtl_algebra::Second::new()).unwrap();
        for (src, want) in per_source.iter().enumerate() {
            let seq = widest_path(&Context::sequential(), &a, src).unwrap();
            let cuda = widest_path(&Context::cuda_default(), &a, src).unwrap();
            assert_eq!(seq, cuda, "source {src}");
            let got: Vec<Option<u32>> = (0..5).map(|v| seq.get(v)).collect();
            assert_eq!(got, want, "source {src}");
        }
    }
}
