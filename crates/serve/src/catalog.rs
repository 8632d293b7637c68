//! The graph catalog: named, immutable, `Arc`-shared resident graphs.
//!
//! Queries never copy a graph — they clone an `Arc<GraphEntry>` out of the
//! catalog and run against the shared CSR. Reloading a name swaps the `Arc`
//! and bumps the entry's **epoch**; the result cache keys on
//! `(name, epoch, …)`, so entries computed against a replaced graph can
//! never be served again (they age out of the LRU instead of needing
//! invalidation).
//!
//! Each entry holds both the boolean adjacency (BFS, PageRank, triangles,
//! CC, MIS) and a deterministically derived `u32`-weighted view (SSSP),
//! built once at load time with the same symmetric uniform weighting the
//! bench harness uses.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use gbtl_core::Matrix;
use gbtl_graphgen::{erdos_renyi, grid_2d, karate_club, weights, Rmat};
use gbtl_sparse::mmio::{read_coo_within, MmLimits};
use gbtl_sparse::{CsrMatrix, SparseError};
use gbtl_util::sync::lock;

/// Weight seed used when a spec has no seed of its own (karate, grid, mtx).
const DEFAULT_WEIGHT_SEED: u64 = 0x5eed;

/// Most vertices a loaded graph may have: 2²⁴. Its CSR's row pointers
/// alone are 128 MiB there.
pub const MAX_VERTICES: usize = 1 << 24;

/// Most edges a generator may be asked for, or a Matrix Market file may
/// hold (its symmetric entries expanded): 2²⁶. Loading peaks at ≈ 43 bytes
/// per generated edge (the edge list beside the adjacency built from it,
/// then the adjacency and the weights; measured on rmat:16:16 and er with
/// 1 M edges), so ≈ 2.9 GB at the bound; 2²⁸ would ask for ≈ 11.5 GB.
pub const MAX_EDGES: usize = 1 << 26;

/// A parsed graph specification (the `--load name=spec` / `{"op":"load"}`
/// grammar). Compact string form: `karate`, `rmat:<scale>:<ef>:<seed>`,
/// `er:<n>:<edges>:<seed>`, `grid:<side>`, `mtx:<path>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSpec {
    /// Zachary's karate club (34 vertices, canned).
    Karate,
    /// Symmetrized simple RMAT graph.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Edges per vertex before symmetrization/dedup.
        edge_factor: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Symmetrized simple Erdős–Rényi graph.
    ErdosRenyi {
        /// Vertex count.
        n: usize,
        /// Edge count before symmetrization/dedup.
        edges: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `side × side` 2-D grid.
    Grid {
        /// Grid side length.
        side: usize,
    },
    /// Matrix Market file (square): every stored entry is an edge, mirrored.
    Mtx {
        /// Path to the `.mtx` file.
        path: String,
    },
}

impl GraphSpec {
    /// Parse the compact `kind[:arg...]` spec string. A graph past
    /// [`MAX_VERTICES`] or a generator past [`MAX_EDGES`] is an error here,
    /// before anything is allocated.
    pub fn parse(s: &str) -> Result<GraphSpec, String> {
        let parts: Vec<&str> = s.trim().split(':').collect();
        let num = |i: usize, what: &str| -> Result<u64, String> {
            parts
                .get(i)
                .ok_or_else(|| format!("spec {s:?}: missing {what}"))?
                .parse::<u64>()
                .map_err(|_| format!("spec {s:?}: bad {what}"))
        };
        let spec = match parts[0] {
            "karate" => GraphSpec::Karate,
            "rmat" => GraphSpec::Rmat {
                scale: u32::try_from(num(1, "scale")?)
                    .map_err(|_| format!("spec {s:?}: bad scale"))?,
                edge_factor: num(2, "edge_factor")? as usize,
                seed: num(3, "seed")?,
            },
            "er" | "erdos_renyi" => GraphSpec::ErdosRenyi {
                n: num(1, "n")? as usize,
                edges: num(2, "edges")? as usize,
                seed: num(3, "seed")?,
            },
            "grid" => GraphSpec::Grid {
                side: num(1, "side")? as usize,
            },
            "mtx" => {
                // a path may itself contain ':'; keep everything after the kind
                let path = s.trim().split_once(':').map_or("", |x| x.1);
                if path.is_empty() {
                    return Err(format!("spec {s:?}: missing path"));
                }
                GraphSpec::Mtx { path: path.into() }
            }
            other => {
                return Err(format!(
                    "unknown graph spec kind {other:?} (expected karate|rmat|er|grid|mtx)"
                ))
            }
        };
        spec.check_size()?;
        Ok(spec)
    }

    /// `Err` when a generated graph would have more than [`MAX_VERTICES`]
    /// vertices or its generator more than [`MAX_EDGES`] edges to draw, or
    /// when Erdős–Rényi or a grid is asked for no vertex at all. A file's
    /// size is checked by its reader, at the size line.
    fn check_size(&self) -> Result<(), String> {
        let (vertices, edges) = match *self {
            GraphSpec::Karate | GraphSpec::Mtx { .. } => return Ok(()),
            GraphSpec::Rmat {
                scale, edge_factor, ..
            } => {
                let n = 1usize.checked_shl(scale);
                (n, n.and_then(|n| n.checked_mul(edge_factor)))
            }
            GraphSpec::ErdosRenyi { n: 0, .. } | GraphSpec::Grid { side: 0 } => {
                return Err(no_vertex(&self.describe()))
            }
            GraphSpec::ErdosRenyi { n, edges, .. } => (Some(n), Some(edges)),
            GraphSpec::Grid { side } => {
                let n = side.checked_mul(side);
                (n, n.and_then(|n| n.checked_mul(4)))
            }
        };
        within_bounds(&self.describe(), vertices, edges)
    }

    /// The canonical spec string (what `list`/`stats` report back).
    pub fn describe(&self) -> String {
        match self {
            GraphSpec::Karate => "karate".into(),
            GraphSpec::Rmat {
                scale,
                edge_factor,
                seed,
            } => format!("rmat:{scale}:{edge_factor}:{seed}"),
            GraphSpec::ErdosRenyi { n, edges, seed } => format!("er:{n}:{edges}:{seed}"),
            GraphSpec::Grid { side } => format!("grid:{side}"),
            GraphSpec::Mtx { path } => format!("mtx:{path}"),
        }
    }

    /// The seed used to derive edge weights for this spec.
    fn weight_seed(&self) -> u64 {
        match self {
            GraphSpec::Rmat { seed, .. } | GraphSpec::ErdosRenyi { seed, .. } => *seed,
            _ => DEFAULT_WEIGHT_SEED,
        }
    }

    /// Generate (or read) the edge list and build its symmetric simple
    /// adjacency straight from it ([`CsrMatrix::symmetric_pattern`]: no
    /// mirrored or loop-free copy), or an error past [`MAX_VERTICES`] or
    /// [`MAX_EDGES`], raised before the CSR is built. Every stored entry of
    /// an `.mtx` file, an explicit `0` too, is an edge.
    pub fn build_adjacency(&self) -> Result<Matrix<bool>, String> {
        self.check_size()?;
        let coo = match self {
            GraphSpec::Karate => karate_club(),
            GraphSpec::Rmat {
                scale,
                edge_factor,
                seed,
            } => Rmat::new(*scale, *edge_factor).seed(*seed).generate(),
            GraphSpec::ErdosRenyi { n, edges, seed } => erdos_renyi(*n, *edges, *seed),
            GraphSpec::Grid { side } => grid_2d(*side, *side),
            GraphSpec::Mtx { path } => {
                let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
                // the reader checks the size line's claim before it sizes
                // anything, and stops at the first entry past the bound
                let limits = MmLimits {
                    max_dim: MAX_VERTICES,
                    max_entries: MAX_EDGES,
                };
                let reader = std::io::BufReader::new(file);
                let coo = read_coo_within::<bool, _>(reader, limits).map_err(|e| match e {
                    SparseError::TooLarge { what, count, max } => {
                        let unit = if what == "entries" {
                            "edges"
                        } else {
                            "vertices"
                        };
                        too_many(&self.describe(), count, max, unit)
                    }
                    e => format!("read {path}: {e}"),
                })?;
                if coo.nrows() != coo.ncols() {
                    return Err(format!(
                        "{}: a graph's matrix must be square, got {}x{}",
                        self.describe(),
                        coo.nrows(),
                        coo.ncols()
                    ));
                }
                if coo.nrows() == 0 {
                    return Err(no_vertex(&self.describe()));
                }
                coo
            }
        };
        let (rows, cols, _) = coo.triples();
        Ok(Matrix::from_csr(CsrMatrix::symmetric_pattern(
            coo.nrows(),
            rows,
            cols,
        )))
    }
}

/// `Err` naming `what` when `vertices` passes [`MAX_VERTICES`] or `edges`
/// passes [`MAX_EDGES`]; `None` is a count past `usize`.
fn within_bounds(what: &str, vertices: Option<usize>, edges: Option<usize>) -> Result<(), String> {
    let over = |count: Option<usize>, max: usize, unit: &str| match count {
        Some(c) if c <= max => Ok(()),
        Some(c) => Err(too_many(what, c, max, unit)),
        None => Err(too_many(what, "too many", max, unit)),
    };
    over(vertices, MAX_VERTICES, "vertices")?;
    over(edges, MAX_EDGES, "edges")
}

/// The error naming `what` that has no vertex: a query on it would have
/// nothing to answer about (PageRank's top vertex, a source to start from).
fn no_vertex(what: &str) -> String {
    format!("{what}: a graph must have at least one vertex")
}

/// The error naming `what` that has `count` `unit`s, past `max`.
fn too_many(what: &str, count: impl std::fmt::Display, max: usize, unit: &str) -> String {
    format!("{what}: {count} {unit}, more than the {max} a graph may have")
}

/// One resident graph: shared, immutable, epoch-stamped.
#[derive(Debug)]
pub struct GraphEntry {
    /// Catalog name.
    pub name: String,
    /// Bumped every time this name is (re)loaded; part of every cache key.
    pub epoch: u64,
    /// Canonical spec string.
    pub spec: String,
    /// Boolean adjacency (symmetric, simple).
    pub adj: Matrix<bool>,
    /// Deterministic symmetric `u32` weights in `[1, 255]` over the same
    /// structure (for SSSP).
    pub weights: Matrix<u32>,
}

impl GraphEntry {
    /// Vertices.
    pub fn n(&self) -> usize {
        self.adj.nrows()
    }

    /// Stored (directed) edges.
    pub fn nnz(&self) -> usize {
        self.adj.nnz()
    }
}

/// Derive the weighted view: symmetric uniform `u32` in `[1, 255]`, seeded,
/// over the adjacency's structure (self-loops already absent), shared with
/// it rather than copied.
fn derive_weights(adj: &Matrix<bool>, seed: u64) -> Matrix<u32> {
    let vals = weights::uniform_u32_symmetric_vals(adj.csr(), 1, 255, seed);
    let csr = adj
        .csr()
        .with_same_structure(vals)
        .expect("one weight per stored entry");
    Matrix::from_csr(csr)
}

/// The named-graph catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    /// Locked with the poison-tolerant [`lock`]: every critical section is
    /// one lookup or one whole-`Arc` insert (graphs are built outside it),
    /// so the map is valid wherever a holder unwinds, and one worker's
    /// panic must not fail every later query's lookup.
    inner: Mutex<HashMap<String, Arc<GraphEntry>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the spec'd graph and install it under `name`. Replacing an
    /// existing name bumps the epoch; in-flight queries keep their `Arc` to
    /// the old entry.
    pub fn load(&self, name: &str, spec: &GraphSpec) -> Result<Arc<GraphEntry>, String> {
        if name.is_empty() {
            return Err("graph name must be non-empty".into());
        }
        let adj = spec.build_adjacency()?;
        let weights = derive_weights(&adj, spec.weight_seed());
        let mut inner = lock(&self.inner);
        let epoch = inner.get(name).map(|e| e.epoch + 1).unwrap_or(1);
        let entry = Arc::new(GraphEntry {
            name: name.to_string(),
            epoch,
            spec: spec.describe(),
            adj,
            weights,
        });
        inner.insert(name.to_string(), entry.clone());
        Ok(entry)
    }

    /// Install a prebuilt entry under `name` — the snapshot-restore path,
    /// where adjacency and weights come off disk instead of a generator.
    /// Epoch semantics match [`Catalog::load`]: replacing an existing name
    /// bumps the epoch (the restored file's recorded epoch is *not*
    /// reused, so stale result-cache entries can never resurface).
    pub fn install(
        &self,
        name: &str,
        spec: String,
        adj: Matrix<bool>,
        weights: Matrix<u32>,
    ) -> Result<Arc<GraphEntry>, String> {
        if name.is_empty() {
            return Err("graph name must be non-empty".into());
        }
        // Entries promise a symmetric simple graph with weights over the
        // adjacency's structure. One structure id is one shared structure
        // (ADR 0023), so shape, nnz and index arrays agree; values off
        // disk must still prove the rest. The transpose-cache prewarm
        // aliases each matrix as its own transpose, so it needs symmetry:
        // symmetric weights (a non-square matrix never is) over a
        // structure shared with an all-true adjacency cover the adjacency
        // too, in one O(nnz) sweep.
        if weights.csr().structure_id() != adj.csr().structure_id() {
            return Err("weights do not share the adjacency structure".into());
        }
        if !adj.csr().vals().iter().all(|&v| v) {
            return Err("adjacency values must all be true".into());
        }
        if !weights.csr().is_symmetric() {
            return Err("graph is not symmetric".into());
        }
        let mut inner = lock(&self.inner);
        let epoch = inner.get(name).map(|e| e.epoch + 1).unwrap_or(1);
        let entry = Arc::new(GraphEntry {
            name: name.to_string(),
            epoch,
            spec,
            adj,
            weights,
        });
        inner.insert(name.to_string(), entry.clone());
        Ok(entry)
    }

    /// The current entry for `name`.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        lock(&self.inner).get(name).cloned()
    }

    /// All resident entries, sorted by name.
    pub fn list(&self) -> Vec<Arc<GraphEntry>> {
        let mut v: Vec<_> = lock(&self.inner).values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Number of resident graphs.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// True when no graph is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_round_trips() {
        for s in ["karate", "rmat:10:8:7", "er:1024:8192:1", "grid:16"] {
            let spec = GraphSpec::parse(s).unwrap();
            assert_eq!(spec.describe(), s);
        }
        assert_eq!(
            GraphSpec::parse("mtx:/tmp/a:b.mtx").unwrap(),
            GraphSpec::Mtx {
                path: "/tmp/a:b.mtx".into()
            }
        );
        assert!(GraphSpec::parse("nope").is_err());
        assert!(GraphSpec::parse("rmat:10").is_err());
        assert!(GraphSpec::parse("rmat:x:8:7").is_err());
        assert!(GraphSpec::parse("mtx:").is_err());
    }

    #[test]
    fn a_spec_past_the_bounds_is_an_error_before_anything_is_built() {
        for s in [
            "grid:100000",
            "grid:4097",
            "rmat:40:8:1",
            "rmat:25:1:1",
            "rmat:24:5:1",
            "rmat:64:1:1",
            "rmat:4294967306:8:1", // 2³² + 10, which `as u32` reads as 10
            "er:10000000000:10:1",
            "er:1024:67108865:1",
            "er:0:8:1",
        ] {
            assert!(GraphSpec::parse(s).is_err(), "{s}");
        }
        for s in ["grid:4096", "rmat:24:4:1", "er:16777216:67108864:1"] {
            assert!(GraphSpec::parse(s).is_ok(), "{s}");
        }
        // a spec built by hand is checked where it would be built
        let err = Catalog::new()
            .load("g", &GraphSpec::Grid { side: 100_000 })
            .unwrap_err();
        assert!(err.contains("vertices"), "{err}");
    }

    #[test]
    fn load_builds_adjacency_and_weights() {
        let cat = Catalog::new();
        let e = cat.load("k", &GraphSpec::Karate).unwrap();
        assert_eq!(e.n(), 34);
        assert!(e.nnz() > 0);
        assert_eq!(e.weights.nnz(), e.adj.nnz());
        assert!(e.weights.iter().all(|(_, _, w)| (1..=255).contains(&w)));
        // weights are symmetric
        for (i, j, w) in e.weights.iter() {
            assert_eq!(e.weights.get(j, i), Some(w));
        }
        assert_eq!(e.epoch, 1);
    }

    #[test]
    fn a_poisoned_catalog_still_loads_and_serves() {
        let cat = Arc::new(Catalog::new());
        let karate = cat.load("k", &GraphSpec::Karate).unwrap();
        let shared = cat.clone();
        let worker = std::thread::spawn(move || {
            let _held = lock(&shared.inner);
            panic!("a worker dies holding the catalog");
        });
        assert!(worker.join().is_err());
        assert!(cat.inner.is_poisoned());

        assert!(Arc::ptr_eq(&cat.get("k").unwrap(), &karate));
        let grid = cat.load("g", &GraphSpec::Grid { side: 4 }).unwrap();
        assert_eq!((grid.n(), grid.epoch), (16, 1));
        assert_eq!(cat.load("k", &GraphSpec::Karate).unwrap().epoch, 2);
        let names: Vec<_> = cat.list().iter().map(|e| e.name.clone()).collect();
        assert_eq!((names, cat.len()), (vec!["g".to_string(), "k".into()], 2));
    }

    #[test]
    fn reload_bumps_epoch_and_keeps_old_arcs_alive() {
        let cat = Catalog::new();
        let first = cat.load("g", &GraphSpec::Grid { side: 4 }).unwrap();
        let second = cat
            .load(
                "g",
                &GraphSpec::Rmat {
                    scale: 5,
                    edge_factor: 4,
                    seed: 1,
                },
            )
            .unwrap();
        assert_eq!(first.epoch, 1);
        assert_eq!(second.epoch, 2);
        assert_eq!(cat.get("g").unwrap().epoch, 2);
        // the replaced entry is still usable through its Arc
        assert_eq!(first.n(), 16);
        assert_eq!(cat.len(), 1);
        assert!(cat.get("missing").is_none());
    }

    #[test]
    fn install_validates_shape_and_bumps_epoch() {
        let cat = Catalog::new();
        let e = cat.load("g", &GraphSpec::Karate).unwrap();
        let adj = e.adj.clone();
        let weights = e.weights.clone();
        let installed = cat
            .install("g", "karate".into(), adj.clone(), weights.clone())
            .unwrap();
        assert_eq!(installed.epoch, 2, "replacing bumps the epoch");
        let fresh = cat
            .install("g2", "karate".into(), adj.clone(), weights)
            .unwrap();
        assert_eq!(fresh.epoch, 1);
        // weights equal to the adjacency's structure but not sharing it are
        // rejected, as are mismatched ones
        let w = e.weights.csr();
        let copied = CsrMatrix::from_parts(
            w.nrows(),
            w.ncols(),
            w.row_ptr().to_vec(),
            w.col_idx().to_vec(),
            w.vals().to_vec(),
        )
        .unwrap();
        assert_eq!(&copied, w);
        let err = cat
            .install("g", "karate".into(), adj.clone(), Matrix::from_csr(copied))
            .unwrap_err();
        assert!(err.contains("do not share"), "{err}");
        let wrong = derive_weights(
            &cat.load("tiny", &GraphSpec::Grid { side: 2 }).unwrap().adj,
            1,
        );
        assert!(cat.install("g", "karate".into(), adj, wrong).is_err());
        assert!(cat
            .install("", "karate".into(), e.adj.clone(), e.weights.clone())
            .is_err());
    }

    #[test]
    fn mtx_spec_loads_a_file() {
        let dir = std::env::temp_dir().join(format!("gbtl_serve_mtx_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tri.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 2\n2 3\n1 3\n",
        )
        .unwrap();
        let spec = GraphSpec::parse(&format!("mtx:{}", path.display())).unwrap();
        let cat = Catalog::new();
        let e = cat.load("tri", &spec).unwrap();
        assert_eq!(e.n(), 3);
        assert_eq!(e.nnz(), 6, "symmetrized");
        assert!(cat
            .load("bad", &GraphSpec::parse("mtx:/no/such/file").unwrap())
            .is_err());
        // a size line claiming 10¹² rows over one entry: refused before
        // the claim sizes a CSR
        let huge = dir.join("huge.mtx");
        std::fs::write(
            &huge,
            "%%MatrixMarket matrix coordinate pattern general\n1000000000000 3 1\n1 2\n",
        )
        .unwrap();
        let spec = GraphSpec::parse(&format!("mtx:{}", huge.display())).unwrap();
        let err = cat.load("huge", &spec).unwrap_err();
        assert!(err.contains("vertices"), "{err}");
        // a rectangular matrix is no graph: an error, not a panic
        let wide = dir.join("wide.mtx");
        std::fs::write(
            &wide,
            "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 3\n",
        )
        .unwrap();
        let spec = GraphSpec::parse(&format!("mtx:{}", wide.display())).unwrap();
        let err = cat.load("wide", &spec).unwrap_err();
        assert!(err.contains("square"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_graph_with_no_vertex_is_refused_naming_its_spec() {
        for s in ["grid:0", "er:0:8:1"] {
            let err = GraphSpec::parse(s).unwrap_err();
            assert!(
                err.starts_with(s) && err.contains("at least one vertex"),
                "{err}"
            );
        }
        let cat = Catalog::new();
        let err = cat.load("g", &GraphSpec::Grid { side: 0 }).unwrap_err();
        assert!(err.starts_with("grid:0:"), "{err}");
        let dir = std::env::temp_dir().join(format!("gbtl_serve_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.mtx");
        std::fs::write(
            &empty,
            "%%MatrixMarket matrix coordinate pattern general\n0 0 0\n",
        )
        .unwrap();
        let spec = format!("mtx:{}", empty.display());
        let err = cat
            .load("m", &GraphSpec::parse(&spec).unwrap())
            .unwrap_err();
        assert!(
            err.starts_with(&spec) && err.contains("at least one vertex"),
            "{err}"
        );
        assert!(cat.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
