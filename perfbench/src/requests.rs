//! The wire workloads' request lists — pure functions of `--seed` and the
//! served graphs. The *mix* (algorithm × backend × graph counts) is fixed
//! by the workload, allocated exactly by largest remainder, so every seed
//! plays the same amount of each kind of work; the seed chooses sources,
//! dampings, MIS seeds and the order.

use std::collections::HashMap;

use crate::rng::Rng;
use crate::run::BACKENDS;

/// A served graph as the load generator knows it.
#[derive(Debug, Clone)]
pub struct WireGraph {
    /// Catalog name.
    pub name: String,
    /// Spec it was loaded from.
    pub spec: String,
    /// Vertices (from the load/restore response).
    pub n: usize,
    /// Stored edges (from the load/restore response).
    pub nnz: u64,
    /// Vertices of the largest component, ascending (learned over the wire
    /// with a `"full":true` BFS), narrowed before the round is built to the
    /// pool sources are drawn from (`GraphKind::wire_sources`).
    pub giant: Vec<usize>,
}

/// What kind of request a line is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A single-graph query.
    Query,
    /// A `query_all`.
    QueryAll,
    /// A `{"op":"load"}` reload.
    Load,
}

/// One request of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// The request line (no newline).
    pub line: String,
    /// Kind.
    pub kind: Kind,
    /// Index of the *logical* query — graph, algorithm and parameters,
    /// without the backend: requests sharing it must answer identically.
    pub logical: usize,
    /// Index into [`BACKENDS`].
    pub backend: usize,
    /// nnz of the graph(s) the request solves on (0 for loads).
    pub nnz: u64,
}

/// One step of a round: per connection, the requests to pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// `lists[c]` = indices into the round's requests sent on connection `c`.
    pub lists: Vec<Vec<usize>>,
    /// Pipeline depth per connection.
    pub depth: usize,
}

impl Step {
    /// Requests the step sends, over all connections.
    pub fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// True for a step that sends nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A round: its requests and the steps that play them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundPlan {
    /// Every request of the round.
    pub reqs: Vec<Req>,
    /// The steps, in order.
    pub steps: Vec<Step>,
    /// Number of distinct logical queries.
    pub logical: usize,
}

/// Interns logical-query keys.
#[derive(Debug, Default)]
struct Interner(HashMap<String, usize>);

impl Interner {
    fn id(&mut self, key: String) -> usize {
        let next = self.0.len();
        *self.0.entry(key).or_insert(next)
    }
}

/// `total` split over `weights` exactly, by largest remainder.
pub fn allocate(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// Algorithms of the query mix, with their parameter field.
const ALGOS: [&str; 4] = ["bfs", "sssp", "pagerank", "mis"];
/// bfs 45 %, sssp 30 %, pagerank 15 %, mis 10 %.
const ALGO_WEIGHTS: [f64; 4] = [0.45, 0.30, 0.15, 0.10];
/// seq 45 %, par 45 %, cuda 10 %.
const BACKEND_WEIGHTS: [f64; 3] = [0.45, 0.45, 0.10];
/// PageRank iteration cap sent with every pagerank query.
const WIRE_PAGERANK_ITERS: usize = 20;

/// Parameter pools per graph, drawn once per seed. Small on purpose: the
/// same logical query then recurs on several backends, which is what lets
/// every round check that backends agree.
struct Pools {
    sources: Vec<usize>,
    dampings: Vec<usize>,
    mis_seeds: Vec<usize>,
}

/// `count` distinct queries over `graphs` with the fixed algorithm and
/// backend mix, in seeded order. `graph_weights[g]` = `(share of the
/// traversal and PageRank queries, share of the MIS queries)` that graph
/// `g` gets. Distinct means distinct cache keys: no `(graph, algo,
/// backend, parameter)` repeats.
pub fn query_mix(
    seed: u64,
    graphs: &[WireGraph],
    graph_weights: &[(f64, f64)],
    count: usize,
) -> RoundPlan {
    assert_eq!(graphs.len(), graph_weights.len());
    let mut rng = Rng::new(seed, "mix");
    let pools: Vec<Pools> = graphs
        .iter()
        .map(|g| {
            let all: Vec<usize> = (0..1000).collect();
            Pools {
                sources: rng.sample(&g.giant, 96.min(g.giant.len())),
                dampings: rng.sample(&all[500..950], 40),
                mis_seeds: rng.sample(&all, 40),
            }
        })
        .collect();

    // cell = (algo, backend, graph); counts fixed by the workload
    let mut cell_weights = Vec::new();
    for (algo, aw) in ALGOS.iter().zip(ALGO_WEIGHTS) {
        for bw in BACKEND_WEIGHTS {
            for (gw, mis_gw) in graph_weights {
                cell_weights.push(aw * bw * if *algo == "mis" { mis_gw } else { gw });
            }
        }
    }
    let cells = allocate(count, &cell_weights);

    let mut logical = Interner::default();
    let mut reqs = Vec::with_capacity(count);
    let mut cell = 0;
    for algo in ALGOS {
        for (b, backend) in BACKENDS.iter().enumerate() {
            for (g, pool) in graphs.iter().zip(&pools) {
                let k = cells[cell];
                cell += 1;
                let values = match algo {
                    "bfs" | "sssp" => rng.sample(&pool.sources, k),
                    "pagerank" => rng.sample(&pool.dampings, k),
                    _ => rng.sample(&pool.mis_seeds, k),
                };
                assert_eq!(values.len(), k, "parameter pool too small for {algo}");
                for v in values {
                    let param = match algo {
                        "bfs" | "sssp" => format!("\"source\":{v}"),
                        "pagerank" => {
                            format!("\"damping\":0.{v:03},\"max_iters\":{WIRE_PAGERANK_ITERS}")
                        }
                        _ => format!("\"seed\":{v}"),
                    };
                    reqs.push(Req {
                        line: format!(
                            "{{\"op\":\"query\",\"graph\":\"{}\",\"algo\":\"{algo}\",\
                             \"backend\":\"{backend}\",{param}}}",
                            g.name
                        ),
                        kind: Kind::Query,
                        logical: logical.id(format!("{}|{algo}|{param}", g.name)),
                        backend: b,
                        nnz: g.nnz,
                    });
                }
            }
        }
    }
    rng.shuffle(&mut reqs);
    RoundPlan {
        steps: Vec::new(),
        logical: logical.0.len(),
        reqs,
    }
}

/// One step playing all of `plan`'s requests, dealt round-robin over
/// `conns` connections at `depth`.
pub fn deal(plan: &mut RoundPlan, conns: usize, depth: usize) {
    let mut lists = vec![Vec::new(); conns];
    for i in 0..plan.reqs.len() {
        lists[i % conns].push(i);
    }
    plan.steps = vec![Step { lists, depth }];
}

/// Zipf(`s`) weights over `k` items.
pub fn zipf(k: usize, s: f64) -> Vec<f64> {
    (0..k).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect()
}

/// A volley's roots are drawn from this many of a graph's source pool, its
/// first (on a scale-free graph: highest-degree) entries: a fused
/// multi-source kernel's cost follows its set of roots, and sixteen of
/// twenty leave a seed little room to change it.
pub const VOLLEY_POOL: usize = 20;

/// Sizing of the `shard-burst` round.
#[derive(Debug, Clone, Copy)]
pub struct BurstShape {
    /// Fusable volleys per connection per round.
    pub volleys: usize,
    /// Queries per volley (the pipeline depth).
    pub volley_size: usize,
    /// Times each graph's triangle_count and cc query is sent per round.
    pub repeats: usize,
}

/// The `shard-burst` round over `graphs` (hottest first, zipf 0.8) on two
/// connections: fusable volleys, repeated tc/cc queries, one `query_all`,
/// one reload per graph.
pub fn burst_round(seed: u64, graphs: &[WireGraph], shape: BurstShape) -> RoundPlan {
    let mut rng = Rng::new(seed, "burst");
    let mut logical = Interner::default();
    let mut plan = RoundPlan::default();
    let weights = zipf(graphs.len(), 0.8);

    // volleys: which graph, algorithm and backend each one runs, and in
    // which order, is fixed by the workload — graphs by zipf and backends by
    // the 45/45/10 mix, allocated exactly over the round's 2 × volleys and
    // dealt in a fixed interleaving — so every seed plays the same work in
    // the same order (the order decides what the allocator holds when, and
    // with it resident memory); the seed draws the roots
    let total = 2 * shape.volleys;
    let expand = |counts: Vec<usize>| -> Vec<usize> {
        counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
            .collect()
    };
    let volley_graph = expand(allocate(total, &weights));
    // spread each backend's volleys evenly over the slots (and so over the
    // graphs): slot s gets the backend whose quota is furthest behind
    let quota = allocate(total, &BACKEND_WEIGHTS);
    let mut given = [0usize; 3];
    let volley_backend: Vec<usize> = (0..total)
        .map(|slot| {
            let b = (0..3)
                .max_by(|&x, &y| {
                    let behind = |b: usize| {
                        quota[b] as f64 * (slot + 1) as f64 / total as f64 - given[b] as f64
                    };
                    behind(x).total_cmp(&behind(y)).then(y.cmp(&x))
                })
                .expect("three backends");
            given[b] += 1;
            b
        })
        .collect();
    let mut volley_steps = Vec::new();
    for v in 0..shape.volleys {
        let mut lists = Vec::new();
        for c in 0..2 {
            // connection 0 takes the slots from the hot end, connection 1
            // from the cold end, so the two volleys of a step never share a
            // fusion key and every step pairs a hot graph with a cooler one
            let slot = if c == 0 { v } else { total - 1 - v };
            let g = &graphs[volley_graph[slot]];
            let b = volley_backend[slot];
            let algo = if slot % 2 == 0 { "bfs" } else { "sssp" };
            let mut list = Vec::new();
            let pool = &g.giant[..g.giant.len().min(VOLLEY_POOL.max(shape.volley_size))];
            for src in rng.sample(pool, shape.volley_size) {
                list.push(plan.reqs.len());
                plan.reqs.push(Req {
                    line: format!(
                        "{{\"op\":\"query\",\"graph\":\"{}\",\"algo\":\"{algo}\",\
                         \"backend\":\"{}\",\"source\":{src}}}",
                        g.name, BACKENDS[b]
                    ),
                    kind: Kind::Query,
                    logical: logical.id(format!("{}|{algo}|{src}", g.name)),
                    backend: b,
                    nnz: g.nnz,
                });
            }
            lists.push(list);
        }
        volley_steps.push(Step {
            lists,
            depth: shape.volley_size,
        });
    }
    plan.steps.append(&mut volley_steps);

    // repeated whole-graph queries: triangle_count and cc of every graph,
    // `repeats` times each — the first of each per epoch executes, the
    // rest are cache hits until the reload below
    let mut repeated = Vec::new();
    for g in graphs {
        for algo in ["triangle_count", "cc"] {
            for _ in 0..shape.repeats {
                repeated.push(plan.reqs.len());
                plan.reqs.push(Req {
                    line: format!(
                        "{{\"op\":\"query\",\"graph\":\"{}\",\"algo\":\"{algo}\",\"backend\":\"par\"}}",
                        g.name
                    ),
                    kind: Kind::Query,
                    logical: logical.id(format!("{}|{algo}", g.name)),
                    backend: 1,
                    nnz: g.nnz,
                });
            }
        }
    }
    let half = repeated.len() / 2;
    plan.steps.push(Step {
        lists: vec![repeated[..half].to_vec(), repeated[half..].to_vec()],
        depth: 4,
    });

    let single = |plan: &mut RoundPlan, req: Req| {
        let i = plan.reqs.len();
        plan.reqs.push(req);
        plan.steps.push(Step {
            lists: vec![vec![i], Vec::new()],
            depth: 1,
        });
    };
    single(
        &mut plan,
        Req {
            line: "{\"op\":\"query_all\",\"algo\":\"cc\",\"backend\":\"par\"}".into(),
            kind: Kind::QueryAll,
            logical: logical.id("*|cc".into()),
            backend: 1,
            nnz: graphs.iter().map(|g| g.nnz).sum(),
        },
    );
    for g in graphs {
        single(
            &mut plan,
            Req {
                line: load_line(&g.name, &g.spec),
                kind: Kind::Load,
                logical: logical.id(format!("{}|load", g.name)),
                backend: 0,
                nnz: 0,
            },
        );
    }
    plan.logical = logical.0.len();
    plan
}

/// A `{"op":"load"}` line.
pub fn load_line(name: &str, spec: &str) -> String {
    format!("{{\"op\":\"load\",\"name\":\"{name}\",\"spec\":\"{spec}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graphs() -> Vec<WireGraph> {
        (0..3)
            .map(|i| WireGraph {
                name: format!("g{i}"),
                spec: format!("rmat:8:8:{i}"),
                n: 256,
                nnz: 1000 + i as u64,
                giant: (0..200).collect(),
            })
            .collect()
    }

    #[test]
    fn allocation_is_exact_and_proportional() {
        assert_eq!(allocate(512, &ALGO_WEIGHTS), [230, 154, 77, 51]);
        assert_eq!(allocate(16, &BACKEND_WEIGHTS), [7, 7, 2]);
        assert_eq!(allocate(5, &[1.0, 1.0]).iter().sum::<usize>(), 5);
    }

    #[test]
    fn same_seed_gives_byte_identical_lists_and_another_seed_differs() {
        let g = graphs();
        let w = [(0.2, 0.0), (0.5, 1.0), (0.3, 0.0)];
        let lines = |seed| -> Vec<String> {
            query_mix(seed, &g, &w, 512)
                .reqs
                .into_iter()
                .map(|r| r.line)
                .collect()
        };
        assert_eq!(lines(11), lines(11));
        assert_ne!(lines(11), lines(12));
        let shape = BurstShape {
            volleys: 4,
            volley_size: 16,
            repeats: 2,
        };
        assert_eq!(burst_round(3, &g, shape), burst_round(3, &g, shape));
        assert_ne!(burst_round(3, &g, shape), burst_round(4, &g, shape));
    }

    #[test]
    fn the_mix_is_distinct_valid_and_the_same_for_every_seed() {
        let g = graphs();
        let w = [(0.2, 0.0), (0.5, 1.0), (0.3, 0.0)];
        let tally = |seed| {
            let plan = query_mix(seed, &g, &w, 512);
            assert_eq!(plan.reqs.len(), 512);
            let mut distinct: Vec<&str> = plan.reqs.iter().map(|r| r.line.as_str()).collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), 512, "every query has its own cache key");
            let mut tally = std::collections::BTreeMap::new();
            for r in &plan.reqs {
                let parsed = gbtl_serve::protocol::parse_request(&r.line).expect("valid request");
                let gbtl_serve::protocol::Request::Query(q) = parsed else {
                    panic!("not a query: {}", r.line)
                };
                assert_eq!(q.backend.as_str(), BACKENDS[r.backend]);
                *tally
                    .entry((q.algo.as_str(), r.backend, q.graph))
                    .or_insert(0usize) += 1;
            }
            // backends share logical queries, so rounds can compare them
            assert!(plan.logical < 512);
            tally
        };
        assert_eq!(tally(1), tally(2));
    }

    #[test]
    fn burst_round_has_volleys_repeats_scatter_and_a_reload_per_graph() {
        let g = graphs();
        let shape = BurstShape {
            volleys: 8,
            volley_size: 16,
            repeats: 2,
        };
        let plan = burst_round(5, &g, shape);
        assert_eq!(plan.steps.len(), 8 + 1 + 1 + g.len());
        // the work is the workload's, not the seed's: same volley kinds
        let kinds = |seed| {
            let p = burst_round(seed, &g, shape);
            let mut k: Vec<String> = p.steps[..8]
                .iter()
                .flat_map(|s| s.lists.iter())
                .map(|l| {
                    p.reqs[l[0]]
                        .line
                        .split("\"source\"")
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect();
            k.sort();
            k
        };
        assert_eq!(kinds(5), kinds(6));
        assert_eq!(
            plan.reqs
                .iter()
                .filter(|r| r.backend == 2 && r.kind == Kind::Query)
                .count(),
            2 * 16,
            "two of the sixteen volleys run on cuda-sim"
        );
        for step in &plan.steps[..8] {
            assert_eq!(step.depth, 16);
            for list in &step.lists {
                assert_eq!(list.len(), 16);
                // one volley = one graph, one algorithm, one backend: fusable
                let first = &plan.reqs[list[0]];
                let prefix = first.line.split("\"source\"").next().unwrap();
                assert!(list.iter().all(|&i| plan.reqs[i].line.starts_with(prefix)));
            }
        }
        let loads = plan.reqs.iter().filter(|r| r.kind == Kind::Load).count();
        let scatters = plan
            .reqs
            .iter()
            .filter(|r| r.kind == Kind::QueryAll)
            .count();
        assert_eq!((loads, scatters), (g.len(), 1));
        for r in &plan.reqs {
            gbtl_serve::protocol::parse_request(&r.line).expect("valid request");
        }
    }
}
