//! Algorithm validation against independent host-side reference
//! implementations, on randomly generated graphs. The GraphBLAS
//! formulations must agree with plain adjacency-list algorithms.

use std::collections::{BinaryHeap, VecDeque};

use gbtl::algorithms::{
    bfs_levels, bfs_parents, connected_components, mst_weight, sssp, triangle_count, Direction,
};
use gbtl::graphgen::{erdos_renyi, symmetrize, weights, Rmat};
use gbtl::prelude::*;
use proptest::prelude::*;

/// Adjacency list view of a boolean matrix.
fn adj_list(a: &Matrix<bool>) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); a.nrows()];
    for (i, j, _) in a.iter() {
        adj[i].push(j);
    }
    adj
}

fn reference_bfs(a: &Matrix<bool>, src: usize) -> Vec<Option<u64>> {
    let adj = adj_list(a);
    let mut levels = vec![None; a.nrows()];
    levels[src] = Some(0);
    let mut q = VecDeque::from([src]);
    while let Some(v) = q.pop_front() {
        let next = levels[v].expect("queued implies leveled") + 1;
        for &u in &adj[v] {
            if levels[u].is_none() {
                levels[u] = Some(next);
                q.push_back(u);
            }
        }
    }
    levels
}

fn reference_dijkstra(a: &Matrix<u32>, src: usize) -> Vec<Option<u64>> {
    let n = a.nrows();
    let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for (i, j, w) in a.iter() {
        adj[i].push((j, w as u64));
    }
    let mut dist: Vec<Option<u64>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    heap.push(std::cmp::Reverse((0u64, src)));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if let Some(old) = dist[v] {
            if old <= d {
                continue;
            }
        }
        dist[v] = Some(d);
        for &(u, w) in &adj[v] {
            let cand = d + w;
            if dist[u].is_none_or(|old| cand < old) {
                heap.push(std::cmp::Reverse((cand, u)));
            }
        }
    }
    dist
}

fn reference_triangles(a: &Matrix<bool>) -> u64 {
    let adj = adj_list(a);
    let n = a.nrows();
    let mut count = 0u64;
    for i in 0..n {
        for &j in &adj[i] {
            if j <= i {
                continue;
            }
            for &k in &adj[j] {
                if k <= j {
                    continue;
                }
                if adj[i].contains(&k) {
                    count += 1;
                }
            }
        }
    }
    count
}

fn reference_components(a: &Matrix<bool>) -> Vec<usize> {
    let n = a.nrows();
    let adj = adj_list(a);
    let mut comp = vec![usize::MAX; n];
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        comp[s] = s;
        let mut q = VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            for &u in &adj[v] {
                if comp[u] == usize::MAX {
                    comp[u] = s;
                    q.push_back(u);
                }
            }
        }
    }
    comp
}

fn reference_mst_weight(a: &Matrix<u32>) -> u64 {
    // Kruskal with union-find over undirected edges (i < j).
    let n = a.nrows();
    let mut edges: Vec<(u32, usize, usize)> = a
        .iter()
        .filter(|&(i, j, _)| i < j)
        .map(|(i, j, w)| (w, i, j))
        .collect();
    edges.sort_unstable();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut [usize], v: usize) -> usize {
        let mut r = v;
        while p[r] != r {
            r = p[r];
        }
        let mut c = v;
        while p[c] != r {
            let nx = p[c];
            p[c] = r;
            c = nx;
        }
        r
    }
    let mut total = 0u64;
    for (w, i, j) in edges {
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            parent[ri] = rj;
            total += w as u64;
        }
    }
    total
}

fn random_graph(scale: u32, ef: usize, seed: u64, rmat: bool) -> Matrix<bool> {
    let coo = if rmat {
        Rmat::new(scale, ef).seed(seed).generate()
    } else {
        erdos_renyi(1 << scale, (1 << scale) * ef, seed)
    };
    gbtl::algorithms::adjacency(symmetrize(&coo))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bfs_matches_reference(seed in 0u64..500, rmat: bool) {
        let a = random_graph(7, 4, seed, rmat);
        let ctx = Context::sequential();
        let levels = bfs_levels(&ctx, &a, 0, Direction::Auto).unwrap();
        let reference = reference_bfs(&a, 0);
        for (v, expect) in reference.iter().enumerate() {
            prop_assert_eq!(levels.get(v), *expect, "vertex {}", v);
        }
    }

    #[test]
    fn bfs_parents_induce_correct_levels(seed in 0u64..500) {
        let a = random_graph(6, 4, seed, true);
        let ctx = Context::sequential();
        let parents = bfs_parents(&ctx, &a, 0).unwrap();
        let reference = reference_bfs(&a, 0);
        // parent tree must reach exactly the reachable set, and walking up
        // from v must take level(v) steps to the root.
        for (v, expect) in reference.iter().enumerate() {
            prop_assert_eq!(parents.get(v).is_some(), expect.is_some());
            if let Some(lv) = expect {
                let mut cur = v;
                for _ in 0..*lv {
                    cur = parents.get(cur).unwrap() as usize;
                }
                prop_assert_eq!(cur, 0, "walk from {} did not reach root", v);
            }
        }
    }

    #[test]
    fn sssp_matches_dijkstra(seed in 0u64..500, rmat: bool) {
        let structure = if rmat {
            symmetrize(&Rmat::new(6, 4).seed(seed).generate())
        } else {
            symmetrize(&erdos_renyi(64, 256, seed))
        };
        let weighted = weights::uniform_u32_symmetric(&structure, 1, 100, seed);
        // drop self loops / dup merge via Matrix build (Min keeps lightest parallel edge)
        let a = Matrix::build(
            64, 64,
            weighted.iter().filter(|&(i, j, _)| i != j),
            gbtl::algebra::Min::new(),
        ).unwrap();
        let ctx = Context::sequential();
        let dist = sssp(&ctx, &a, 0).unwrap();
        let reference = reference_dijkstra(&a, 0);
        for (v, expect) in reference.iter().enumerate() {
            prop_assert_eq!(dist.get(v).map(u64::from), *expect, "vertex {}", v);
        }
    }

    #[test]
    fn triangles_match_reference(seed in 0u64..500, rmat: bool) {
        let a = random_graph(6, 6, seed, rmat);
        let ctx = Context::sequential();
        prop_assert_eq!(triangle_count(&ctx, &a).unwrap(), reference_triangles(&a));
    }

    #[test]
    fn components_match_reference(seed in 0u64..500) {
        // sparse enough to have several components
        let a = gbtl::algorithms::adjacency(symmetrize(&erdos_renyi(96, 60, seed)));
        let ctx = Context::sequential();
        let labels = connected_components(&ctx, &a).unwrap();
        let reference = reference_components(&a);
        // same partition: labels equal iff reference roots equal
        for v in 0..96 {
            for u in v + 1..96 {
                prop_assert_eq!(
                    labels.get(v) == labels.get(u),
                    reference[v] == reference[u],
                    "vertices {} and {}", v, u
                );
            }
        }
    }

    #[test]
    fn mst_matches_kruskal(seed in 0u64..500) {
        let structure = symmetrize(&erdos_renyi(48, 200, seed));
        let weighted = weights::uniform_u32_symmetric(&structure, 1, 1000, seed);
        let a = Matrix::build(
            48, 48,
            weighted.iter().filter(|&(i, j, _)| i != j),
            gbtl::algebra::Min::new(),
        ).unwrap();
        let ctx = Context::sequential();
        let got = mst_weight(&ctx, &a).unwrap() as u64;
        prop_assert_eq!(got, reference_mst_weight(&a));
    }
}

#[test]
fn cuda_backend_algorithms_match_seq_on_rmat() {
    // One heavier cross-backend run per algorithm family.
    let a = random_graph(9, 8, 77, true);
    let seq = Context::sequential();
    let cuda = Context::cuda_default();

    assert_eq!(
        bfs_levels(&seq, &a, 0, Direction::Push).unwrap(),
        bfs_levels(&cuda, &a, 0, Direction::Push).unwrap()
    );
    assert_eq!(
        triangle_count(&seq, &a).unwrap(),
        triangle_count(&cuda, &a).unwrap()
    );
    assert_eq!(
        connected_components(&seq, &a).unwrap(),
        connected_components(&cuda, &a).unwrap()
    );

    let weighted = weights::uniform_u32_symmetric(
        &symmetrize(&Rmat::new(9, 8).seed(77).generate()),
        1,
        255,
        5,
    );
    let aw = Matrix::build(
        512,
        512,
        weighted.iter().filter(|&(i, j, _)| i != j),
        gbtl::algebra::Min::new(),
    )
    .unwrap();
    assert_eq!(sssp(&seq, &aw, 3).unwrap(), sssp(&cuda, &aw, 3).unwrap());
}

#[test]
fn bc_and_ktruss_agree_across_backends_on_rmat() {
    let a = random_graph(7, 6, 21, true);
    let seq = Context::sequential();
    let cuda = Context::cuda_default();

    // sampled-source BC (exact over all 128 sources is heavier than needed)
    let sources: Vec<usize> = (0..a.nrows()).step_by(8).collect();
    let b1 = gbtl::algorithms::betweenness_centrality(&seq, &a, &sources).unwrap();
    let b2 = gbtl::algorithms::betweenness_centrality(&cuda, &a, &sources).unwrap();
    for v in 0..a.nrows() {
        let (x, y) = (b1.get(v).unwrap_or(0.0), b2.get(v).unwrap_or(0.0));
        assert!((x - y).abs() < 1e-6, "vertex {v}: {x} vs {y}");
    }

    let t1 = gbtl::algorithms::k_truss(&seq, &a, 4).unwrap();
    let t2 = gbtl::algorithms::k_truss(&cuda, &a, 4).unwrap();
    assert_eq!(t1, t2);
    // the k-truss is a subgraph of the input
    for (i, j, _) in t1.iter() {
        assert!(a.get(i, j).is_some(), "truss edge ({i},{j}) not in graph");
    }
}

#[test]
fn ktruss_nesting_invariant() {
    // (k+1)-truss edges are always a subset of the k-truss.
    let a = random_graph(7, 8, 5, true);
    let ctx = Context::sequential();
    let t3 = gbtl::algorithms::k_truss(&ctx, &a, 3).unwrap();
    let t4 = gbtl::algorithms::k_truss(&ctx, &a, 4).unwrap();
    let t5 = gbtl::algorithms::k_truss(&ctx, &a, 5).unwrap();
    assert!(t4.nnz() <= t3.nnz());
    assert!(t5.nnz() <= t4.nnz());
    for (i, j, _) in t4.iter() {
        assert!(t3.get(i, j).is_some());
    }
    for (i, j, _) in t5.iter() {
        assert!(t4.get(i, j).is_some());
    }
}

#[test]
fn bc_mass_conservation_on_connected_graph() {
    // Sum of BC over all vertices equals the number of ordered
    // non-adjacent-on-shortest-path... simpler invariant: total dependency
    // equals sum over (s,t) pairs of (path length - 1) when paths are
    // unique; here just verify non-negativity and that leaves score 0.
    let a = random_graph(6, 4, 99, false);
    let ctx = Context::sequential();
    let bc = gbtl::algorithms::betweenness_centrality_exact(&ctx, &a).unwrap();
    let degrees = gbtl::algorithms::out_degrees(&ctx, &a).unwrap();
    for v in 0..a.nrows() {
        let score = bc.get(v).unwrap_or(0.0);
        assert!(score >= -1e-12, "negative BC at {v}");
        if degrees.get(v).unwrap_or(0) <= 1 {
            assert!(
                score.abs() < 1e-9,
                "degree-<=1 vertex {v} cannot be a through-point"
            );
        }
    }
}

/// Luby's MIS with its neighbour-min pull masked to the candidates (PR 25)
/// returns the sets the unmasked pull did: per graph, the FNV-1a fold of
/// the sizes and members of the sets for 16 seeds, recorded from the
/// parent build, on all three backends.
#[test]
fn masked_mis_returns_the_unmasked_sets() {
    use gbtl::algorithms::mis::verify_mis;
    use gbtl::algorithms::{adjacency, maximal_independent_set};
    use gbtl::graphgen::karate_club;
    use gbtl::util::hash::fnv1a_fold;

    fn fold<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>) -> u64 {
        (0..16u64).fold(0, |h, seed| {
            let set = maximal_independent_set(ctx, a, seed * 7919 + 1).unwrap();
            assert!(verify_mis(a, &set), "seed {seed} on {}", ctx.backend_name());
            let h = fnv1a_fold(h, &(set.nnz() as u64).to_le_bytes());
            set.iter()
                .fold(h, |h, (v, _)| fnv1a_fold(h, &(v as u64).to_le_bytes()))
        })
    }
    let graphs = [
        (
            "karate",
            adjacency(karate_club()),
            0x0586_1985_a0c0_26bf_u64,
        ),
        (
            "rmat10",
            adjacency(symmetrize(&Rmat::new(10, 8).seed(7).generate())),
            0xaf0d_7656_bd38_ecb0,
        ),
        (
            "er10",
            adjacency(symmetrize(&erdos_renyi(1024, 8192, 7))),
            0xe7f5_4882_0054_24ca,
        ),
    ];
    for (name, a, want) in &graphs {
        let got = [
            fold(&Context::sequential(), a),
            fold(&Context::parallel_with_threads(3), a),
            fold(&Context::cuda_default(), a),
        ];
        assert_eq!(got, [*want; 3], "{name}: seq / par / cuda");
    }
}

/// Inputs the algorithms cannot answer for are errors, not panics: a
/// coloring of a vertex that is its own neighbour (its independent sets
/// refuse it), a spanning forest over a weight that compares to nothing.
#[test]
fn unanswerable_inputs_are_errors() {
    let ctx = Context::sequential();
    let looped = Matrix::build(
        3,
        3,
        [(0usize, 1usize, true), (1, 0, true), (2, 2, true)],
        gbtl::algebra::Second::new(),
    )
    .unwrap();
    let err = gbtl::algorithms::greedy_color(&ctx, &looped, 7).unwrap_err();
    assert!(
        matches!(err, gbtl::core::GblasError::InvalidValue { .. }),
        "{err}"
    );

    let nan = Matrix::build(
        3,
        3,
        [
            (0usize, 1usize, 2.0f64),
            (1, 0, 2.0),
            (1, 2, f64::NAN),
            (2, 1, f64::NAN),
        ],
        gbtl::algebra::Second::new(),
    )
    .unwrap();
    let err = mst_weight(&ctx, &nan).unwrap_err();
    assert!(
        matches!(
            err,
            gbtl::core::GblasError::InvalidValue {
                op: "mst_weight",
                ..
            }
        ),
        "{err}"
    );
}
