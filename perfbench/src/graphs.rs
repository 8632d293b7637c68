//! Workload graphs: a fixed, named set (like the GraphBLAST / Gunrock
//! tables), generated from constants of the benchmark — `--seed` picks
//! sources, parameters and order, never the graphs, so results compare
//! across seeds and PRs. Also the result checksum and the karate fixture.

use gbtl_algebra::{Min, Scalar};
use gbtl_algorithms::{adjacency, bfs_levels, triangle_count, Direction};
use gbtl_core::{Backend, Context, Matrix, Vector};
use gbtl_graphgen::{erdos_renyi, grid_2d, karate_club, symmetrize, torus_2d, weights, Rmat};
use gbtl_sparse::CooMatrix;

/// A graph of the benchmark's fixed set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Symmetrized simple RMAT, `2^scale` vertices.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Edges per vertex before symmetrization.
        ef: usize,
        /// Generator seed (a constant of the workload).
        seed: u64,
    },
    /// Symmetrized Erdős–Rényi with the matching RMAT's budget.
    Er {
        /// log2 of the vertex count.
        scale: u32,
        /// Edges per vertex before symmetrization.
        ef: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `side × side` grid: high diameter, tiny frontiers.
    Grid {
        /// Side length.
        side: usize,
    },
    /// `side × side` grid with wrap-around edges. Vertex-transitive: a
    /// traversal costs the same from every source, so seeds differ in
    /// their data and not in their work. Library workloads only — the
    /// serve spec grammar has no torus.
    Torus {
        /// Side length.
        side: usize,
    },
    /// Zachary's karate club (the fixture).
    Karate,
}

impl GraphKind {
    /// The gbtl-serve spec string naming the same graph on the wire (a
    /// torus has none; its string only labels it).
    pub fn spec(self) -> String {
        match self {
            GraphKind::Rmat { scale, ef, seed } => format!("rmat:{scale}:{ef}:{seed}"),
            GraphKind::Er { scale, ef, seed } => {
                let n = 1usize << scale;
                format!("er:{n}:{}:{seed}", n * ef)
            }
            GraphKind::Grid { side } => format!("grid:{side}"),
            GraphKind::Torus { side } => format!("torus:{side}"),
            GraphKind::Karate => "karate".into(),
        }
    }

    /// The vertices of `component` that traversal sources are drawn from.
    /// On an open grid a corner source runs twice the levels of a centre
    /// source, so only the vertices of one eccentricity — 1½ × (side − 1),
    /// a ring halfway between centre and corners — are kept and every
    /// seed's traversals run the same number of levels. Other graphs keep
    /// the whole component.
    pub fn even_sources(self, component: Vec<usize>) -> Vec<usize> {
        let GraphKind::Grid { side } = self else {
            return component;
        };
        let far = |x: usize| x.max(side - 1 - x);
        component
            .into_iter()
            .filter(|v| far(v % side) + far(v / side) == 3 * (side - 1) / 2)
            .collect()
    }

    /// The pool the wire workloads draw traversal sources from, out of the
    /// graph's largest `component`: on a grid the ring of
    /// [`GraphKind::even_sources`]; elsewhere the [`WIRE_POOL`] vertices of
    /// highest degree, highest first, for the reason `LibGraph::hubs` gives —
    /// from an arbitrary vertex a traversal's cost is the source's own, and
    /// the handful of queries a round sends to one backend would make that
    /// backend's numbers a function of the seed. The degrees come from the
    /// harness's own copy of the graph (same generator, same spec).
    pub fn wire_sources(self, component: Vec<usize>) -> Vec<usize> {
        if matches!(self, GraphKind::Grid { .. }) {
            return self.even_sources(component);
        }
        let adj = adjacency(self.generate());
        let mut pool = component;
        pool.sort_by_key(|&v| (std::cmp::Reverse(adj.csr().row_nnz(v)), v));
        pool.truncate(WIRE_POOL);
        pool
    }

    /// Short label for reports (`rmat16`, `grid128`).
    pub fn label(self) -> String {
        match self {
            GraphKind::Rmat { scale, .. } => format!("rmat{scale}"),
            GraphKind::Er { scale, .. } => format!("er{scale}"),
            GraphKind::Grid { side } => format!("grid{side}"),
            GraphKind::Torus { side } => format!("torus{side}"),
            GraphKind::Karate => "karate".into(),
        }
    }

    /// Generate the symmetric edge list (the graphgen layer).
    pub fn generate(self) -> CooMatrix<bool> {
        match self {
            GraphKind::Rmat { scale, ef, seed } => {
                symmetrize(&Rmat::new(scale, ef).seed(seed).generate())
            }
            GraphKind::Er { scale, ef, seed } => {
                let n = 1usize << scale;
                symmetrize(&erdos_renyi(n, n * ef, seed))
            }
            GraphKind::Grid { side } => grid_2d(side, side),
            GraphKind::Torus { side } => torus_2d(side, side),
            GraphKind::Karate => karate_club(),
        }
    }

    fn weight_seed(self) -> u64 {
        match self {
            GraphKind::Rmat { seed, .. } | GraphKind::Er { seed, .. } => seed,
            _ => 0x5eed,
        }
    }
}

/// Size of a served graph's source pool (see [`GraphKind::wire_sources`]).
pub const WIRE_POOL: usize = 48;

/// Size of a library graph's source pool (its highest-degree vertices).
pub const HUBS: usize = 16;

/// A built library graph: boolean adjacency, the `u32`-weighted view SSSP
/// runs on (same derivation as the serve catalog's), and the vertices of
/// its largest component, from which sources are drawn.
#[derive(Debug)]
pub struct LibGraph {
    /// Which graph this is.
    pub kind: GraphKind,
    /// Symmetric simple adjacency.
    pub adj: Matrix<bool>,
    /// Symmetric uniform weights in `[1, 255]` over the same structure.
    pub weights: Matrix<u32>,
    /// Vertices of the component of the highest-degree vertex, ascending.
    pub giant: Vec<usize>,
    /// The [`HUBS`] vertices of `giant` with the highest degree, ascending:
    /// the pool library traversals draw their sources from. From a random
    /// vertex of an RMAT graph a BFS is bimodal — 5 or 10 ms on rmat16, by
    /// whether the frontier saturates one level sooner — and even among the
    /// top sixteenth by degree a traversal's cost spreads by ±12 %, which
    /// with a handful of sources a round made every timing metric a
    /// function of the seed. A round therefore takes most of a small pool
    /// (see `libwork::sources_per_round`): seeds differ in which hubs they
    /// leave out and in the order, and hardly in the work.
    pub hubs: Vec<usize>,
}

impl LibGraph {
    /// Generate and build.
    pub fn build(kind: GraphKind) -> LibGraph {
        let adj = adjacency(kind.generate());
        let weights = derive_weights(&adj, kind.weight_seed());
        let giant = giant_component(&adj);
        let mut hubs = giant.clone();
        hubs.sort_by_key(|&v| (std::cmp::Reverse(adj.csr().row_nnz(v)), v));
        hubs.truncate(HUBS);
        hubs.sort_unstable();
        LibGraph {
            kind,
            adj,
            weights,
            giant,
            hubs,
        }
    }

    /// Stored (directed) edges.
    pub fn nnz(&self) -> u64 {
        self.adj.nnz() as u64
    }
}

/// Symmetric uniform `u32` weights in `[1, 255]` over `adj`'s structure.
pub fn derive_weights(adj: &Matrix<bool>, seed: u64) -> Matrix<u32> {
    let (r, c, v) = adj.extract_tuples();
    let coo = CooMatrix::from_triples(adj.nrows(), adj.ncols(), r, c, v)
        .expect("indices from a valid matrix");
    Matrix::from_coo(
        weights::uniform_u32_symmetric(&coo, 1, 255, seed),
        Min::new(),
    )
}

/// Vertices reachable from the highest-degree vertex — a plain host BFS
/// over the CSR, independent of the library under test.
pub fn giant_component(adj: &Matrix<bool>) -> Vec<usize> {
    let csr = adj.csr();
    let n = csr.nrows();
    let Some(hub) = (0..n).max_by_key(|&i| (csr.row_nnz(i), std::cmp::Reverse(i))) else {
        return Vec::new();
    };
    let mut seen = vec![false; n];
    let mut queue = vec![hub];
    seen[hub] = true;
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &v in csr.row(u).0 {
            if !seen[v] {
                seen[v] = true;
                queue.push(v);
            }
        }
    }
    queue.sort_unstable();
    queue
}

/// FNV-1a 64 over a result vector's `(index, value)` pairs — the same
/// definition gbtl-serve checksums its responses with, so a library
/// checksum and a wire checksum of one answer are comparable.
pub fn checksum<T: Scalar>(v: &Vector<T>, to_bits: impl Fn(T) -> u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(v.len() as u64);
    for (i, x) in v.iter() {
        eat(i as u64);
        eat(to_bits(x));
    }
    h
}

/// Known answers on Zachary's karate club: 45 triangles; BFS from vertex 0
/// reaches all 34 vertices with 1, 16, 9 and 8 of them at levels 0–3.
pub const KARATE_TRIANGLES: u64 = 45;
/// See [`KARATE_TRIANGLES`].
pub const KARATE_BFS_LEVEL_SIZES: [usize; 4] = [1, 16, 9, 8];

/// Check the karate fixture on `ctx`.
pub fn check_karate<B: Backend>(ctx: &Context<B>) -> Result<(), String> {
    let a = adjacency(karate_club());
    let t = triangle_count(ctx, &a).map_err(|e| e.to_string())?;
    if t != KARATE_TRIANGLES {
        return Err(format!(
            "{}: karate has {t} triangles, expected {KARATE_TRIANGLES}",
            ctx.backend_name()
        ));
    }
    let levels = bfs_levels(ctx, &a, 0, Direction::Auto).map_err(|e| e.to_string())?;
    let mut sizes = [0usize; 4];
    for (_, l) in levels.iter() {
        match sizes.get_mut(l as usize) {
            Some(s) => *s += 1,
            None => return Err(format!("{}: karate BFS level {l} > 3", ctx.backend_name())),
        }
    }
    if sizes != KARATE_BFS_LEVEL_SIZES {
        return Err(format!(
            "{}: karate BFS level sizes {sizes:?}, expected {KARATE_BFS_LEVEL_SIZES:?}",
            ctx.backend_name()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn karate_fixture_holds_on_every_backend_and_against_a_plain_bfs() {
        check_karate(&Context::sequential()).unwrap();
        check_karate(&Context::parallel_with_threads(2)).unwrap();
        check_karate(&Context::cuda_default()).unwrap();
        // the constant itself, from a BFS that uses nothing of the library
        let a = adjacency(karate_club());
        let csr = a.csr();
        let mut dist = vec![usize::MAX; 34];
        dist[0] = 0;
        let mut q = std::collections::VecDeque::from([0usize]);
        while let Some(u) = q.pop_front() {
            for &v in csr.row(u).0 {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        let mut sizes = [0usize; 4];
        for d in dist {
            sizes[d] += 1;
        }
        assert_eq!(sizes, KARATE_BFS_LEVEL_SIZES);
    }

    #[test]
    fn grid_sources_share_one_eccentricity() {
        let grid = GraphKind::Grid { side: 12 };
        let ring = grid.even_sources((0..144).collect());
        assert_eq!(ring.len(), 20);
        // 16 = 1½ × 11 rounded down: e.g. (1, 6) is 10 + 6 from the far corner
        assert!(ring.contains(&(6 * 12 + 1)) && !ring.contains(&0));
        let rmat = GraphKind::Rmat {
            scale: 4,
            ef: 2,
            seed: 1,
        };
        assert_eq!(rmat.even_sources(vec![1, 2, 3]), [1, 2, 3]);
    }

    #[test]
    fn specs_name_the_graph_the_library_builds() {
        let kind = GraphKind::Rmat {
            scale: 8,
            ef: 8,
            seed: 3,
        };
        assert_eq!(kind.spec(), "rmat:8:8:3");
        let lib = LibGraph::build(kind);
        let served = gbtl_serve::catalog::GraphSpec::parse(&kind.spec())
            .and_then(|s| s.build_adjacency())
            .unwrap();
        assert_eq!(lib.adj.extract_tuples(), served.extract_tuples());
        assert_eq!(
            GraphKind::Er {
                scale: 4,
                ef: 2,
                seed: 1
            }
            .spec(),
            "er:16:32:1"
        );
        assert!(!lib.giant.is_empty() && lib.giant.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(lib.hubs.len(), HUBS);
        assert!(lib.hubs.iter().all(|h| lib.giant.binary_search(h).is_ok()));
        assert_eq!(lib.weights.nnz(), lib.adj.nnz());
    }

    #[test]
    fn checksum_depends_on_every_entry() {
        let mut v: Vector<u64> = Vector::new(4);
        v.set(1, 5);
        let a = checksum(&v, |x| x);
        v.set(2, 5);
        let b = checksum(&v, |x| x);
        v.set(2, 6);
        let c = checksum(&v, |x| x);
        assert!(a != b && b != c);
    }
}
