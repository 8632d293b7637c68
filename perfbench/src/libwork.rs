//! The two library workloads: one thread calling `gbtl_algorithms` on a
//! `Context` per backend — the library caller's view of the system.
//!
//! A round runs the same seeded solve list on `seq`, then `par`, then
//! `cuda`; each backend's part is its *section*. seq and par solve the
//! host-size graphs; the simulated GPU, whose host-side simulation is the
//! slowest code in the repo, solves the two-scales-smaller device-size
//! graphs, so a round stays under a second. Every result is checksummed
//! against the sequential reference computed during warm-up.
//!
//! The high-diameter graph of `lib-traverse` is a torus, not an open grid:
//! on a grid a corner source runs twice the levels of a centre source, and
//! with two sources a round that alone moved the modeled device time by
//! ±15 % between seeds; on the torus every source costs the same.

use std::time::Instant;

use gbtl_algorithms::pagerank::PageRankOptions;
use gbtl_algorithms::{
    bfs_levels, connected_components, maximal_independent_set, pagerank, sssp, triangle_count,
    Direction,
};
use gbtl_core::{Backend, Context, CudaBackend, ParBackend, SeqBackend, TraceMode};

use crate::graphs::{check_karate, checksum, GraphKind, LibGraph};
use crate::rng::Rng;
use crate::run::{Metrics, Pace, Round, RunConfig, Slot, Workload};
use crate::spans::Recorder;

/// Which library workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibKind {
    /// `lib-traverse`: BFS + SSSP.
    Traverse,
    /// `lib-algebra`: triangle count, PageRank, CC, MIS.
    Algebra,
}

/// Worker threads of the parallel context — pinned, not read from the
/// host, so a result means the same on every box.
pub const PAR_THREADS: usize = 2;
/// PageRank iterations per solve (tolerance off, so exactly this many).
pub const PAGERANK_ITERS: usize = 20;

/// Traversal sources a `lib-traverse` round draws from a graph's sixteen
/// hubs: twelve on a scale-free graph, where a source's cost is its own
/// (drawing three quarters of the pool leaves a seed little room to change
/// the round's work), four on the torus, where every source costs the same
/// and an SSSP runs a hundred levels.
pub fn sources_per_round(kind: GraphKind, smoke: bool) -> usize {
    match kind {
        _ if smoke => 2,
        GraphKind::Torus { .. } | GraphKind::Grid { .. } => 4,
        _ => 12,
    }
}

/// One solve of the round's list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Solve {
    /// `bfs_levels(.., Direction::Auto)` from a source.
    Bfs(usize),
    /// `sssp` from a source.
    Sssp(usize),
    /// `triangle_count`.
    Triangle,
    /// `pagerank`, [`PAGERANK_ITERS`] iterations at this damping.
    Pagerank(f64),
    /// `connected_components`.
    Cc,
    /// `maximal_independent_set` with this seed.
    Mis(u64),
}

impl Solve {
    /// Span label.
    pub fn label(self) -> &'static str {
        match self {
            Solve::Bfs(_) => "alg.bfs",
            Solve::Sssp(_) => "alg.sssp",
            Solve::Triangle => "alg.triangle",
            Solve::Pagerank(_) => "alg.pagerank",
            Solve::Cc => "alg.cc",
            Solve::Mis(_) => "alg.mis",
        }
    }

    /// Run on `ctx`, returning the result's checksum.
    pub fn run<B: Backend>(self, ctx: &Context<B>, g: &LibGraph) -> Result<u64, String> {
        let e = |e: gbtl_core::GblasError| e.to_string();
        Ok(match self {
            Solve::Bfs(src) => checksum(
                &bfs_levels(ctx, &g.adj, src, Direction::Auto).map_err(e)?,
                |v| v,
            ),
            Solve::Sssp(src) => checksum(&sssp(ctx, &g.weights, src).map_err(e)?, u64::from),
            Solve::Triangle => triangle_count(ctx, &g.adj).map_err(e)?,
            Solve::Pagerank(damping) => {
                let opts = PageRankOptions {
                    damping,
                    tolerance: 0.0,
                    max_iters: PAGERANK_ITERS,
                };
                checksum(&pagerank(ctx, &g.adj, opts).map_err(e)?.0, f64::to_bits)
            }
            Solve::Cc => checksum(&connected_components(ctx, &g.adj).map_err(e)?, |v| v),
            Solve::Mis(seed) => checksum(
                &maximal_independent_set(ctx, &g.adj, seed).map_err(e)?,
                u64::from,
            ),
        })
    }
}

/// The graphs of a workload: `(host-size, device-size)`.
pub fn graph_set(kind: LibKind, smoke: bool) -> (Vec<GraphKind>, Vec<GraphKind>) {
    let rmat = |scale, ef| GraphKind::Rmat { scale, ef, seed: 1 };
    let er = |scale| GraphKind::Er {
        scale,
        ef: 8,
        seed: 2,
    };
    let torus = |side| GraphKind::Torus { side };
    if smoke {
        let tiny = vec![GraphKind::Karate, rmat(8, 8)];
        return (tiny.clone(), tiny);
    }
    match kind {
        LibKind::Traverse => (vec![rmat(14, 16), torus(96)], vec![rmat(12, 8), torus(48)]),
        LibKind::Algebra => (vec![rmat(13, 8), er(13)], vec![rmat(11, 8), er(11)]),
    }
}

/// The round's solve list for one graph — a pure function of the seed.
/// `sources` = how many traversal sources to draw.
pub fn solve_list(kind: LibKind, seed: u64, g: &LibGraph, sources: usize) -> Vec<Solve> {
    let mut rng = Rng::new(seed, &format!("lib:{}", g.kind.spec()));
    match kind {
        LibKind::Traverse => rng
            .sample(&g.hubs, sources)
            .into_iter()
            .flat_map(|s| [Solve::Bfs(s), Solve::Sssp(s)])
            .collect(),
        LibKind::Algebra => vec![
            Solve::Triangle,
            // dampings on a 1/1000 grid in [0.80, 0.90)
            Solve::Pagerank(0.80 + rng.below(100) as f64 / 1000.0),
            Solve::Cc,
            Solve::Mis(rng.next_u64() % 1_000_000),
        ],
    }
}

/// A graph with its solve list and the reference checksums.
#[derive(Debug)]
struct Case {
    graph: LibGraph,
    solves: Vec<Solve>,
    expected: Vec<u64>,
}

/// A set-up library workload.
#[derive(Debug)]
pub struct LibWorkload {
    seq: Context<SeqBackend>,
    par: Context<ParBackend>,
    cuda: Context<CudaBackend>,
    host: Vec<Case>,
    device: Vec<Case>,
    /// The reload analog runs on its own context so it never evicts the
    /// workload's transposes.
    reload_ctx: Context<SeqBackend>,
    reload_kind: GraphKind,
    next_req: u64,
}

fn build_cases(kinds: &[GraphKind], kind: LibKind, seed: u64, smoke: bool) -> Vec<Case> {
    kinds
        .iter()
        .map(|&k| {
            let graph = LibGraph::build(k);
            let solves = solve_list(kind, seed, &graph, sources_per_round(k, smoke));
            Case {
                graph,
                solves,
                expected: Vec::new(),
            }
        })
        .collect()
}

fn prewarm<B: Backend>(ctx: &Context<B>, cases: &[Case]) {
    for c in cases {
        ctx.prewarm_transpose(&c.graph.adj);
        ctx.prewarm_transpose(&c.graph.weights);
    }
}

impl LibWorkload {
    /// Generate and build the graphs, create the three contexts, prewarm
    /// the transposes, and get a first correct answer from every backend.
    pub fn setup(kind: LibKind, cfg: &RunConfig) -> Result<LibWorkload, String> {
        let (host_kinds, device_kinds) = graph_set(kind, cfg.smoke);
        let w = LibWorkload {
            seq: Context::sequential(),
            par: Context::parallel_with_threads(PAR_THREADS),
            cuda: Context::cuda_default(),
            host: build_cases(&host_kinds, kind, cfg.seed, cfg.smoke),
            device: build_cases(&device_kinds, kind, cfg.seed, cfg.smoke),
            reload_ctx: Context::sequential(),
            reload_kind: if cfg.smoke {
                GraphKind::Karate
            } else {
                crate::RELOAD_GRAPH
            },
            next_req: 0,
        };
        prewarm(&w.seq, &w.host);
        prewarm(&w.seq, &w.device);
        prewarm(&w.par, &w.host);
        prewarm(&w.cuda, &w.device);
        check_karate(&w.seq)?;
        check_karate(&w.par)?;
        check_karate(&w.cuda)?;
        // first answers: one solve per backend, equal across backends
        let first = &w.device[0];
        let s = first.solves[0];
        let want = s.run(&w.seq, &first.graph)?;
        for got in [s.run(&w.par, &first.graph)?, s.run(&w.cuda, &first.graph)?] {
            if got != want {
                return Err(format!(
                    "{:?} on {}: backends disagree ({got:016x} vs {want:016x})",
                    s,
                    first.graph.kind.label()
                ));
            }
        }
        Ok(w)
    }

    /// Compute the sequential reference checksum of every solve (part of
    /// warm-up, not of set-up: it is the harness's oracle, not a cost a
    /// library caller pays).
    pub fn warm_up(&mut self) -> Result<(), String> {
        for c in self.host.iter_mut().chain(self.device.iter_mut()) {
            c.expected = c
                .solves
                .iter()
                .map(|s| s.run(&self.seq, &c.graph))
                .collect::<Result<_, _>>()?;
        }
        Ok(())
    }

    /// Op aggregates of one backend's context since tracing was last
    /// cleared: `(op name, dispatch count)`.
    pub fn op_counts(&self) -> Vec<(&'static str, Vec<(String, u64)>)> {
        fn counts<B: Backend>(ctx: &Context<B>) -> Vec<(String, u64)> {
            ctx.trace()
                .ops
                .iter()
                .map(|o| (o.op.to_string(), o.calls))
                .collect()
        }
        vec![
            ("seq", counts(&self.seq)),
            ("par", counts(&self.par)),
            ("cuda", counts(&self.cuda)),
        ]
    }
}

/// Run one backend's section of the round.
fn section<B: Backend>(
    ctx: &Context<B>,
    b: usize,
    cases: &[Case],
    rec: &mut Recorder,
    pace: &mut Pace,
    next_req: &mut u64,
    round: &mut Round,
) {
    let span = rec.enter(["section.seq", "section.par", "section.cuda"][b], 0);
    for c in cases {
        for (s, want) in c.solves.iter().zip(&c.expected) {
            *next_req += 1;
            let call = rec.enter(s.label(), *next_req);
            let t = Instant::now();
            let got = s.run(ctx, &c.graph);
            let wall_s = t.elapsed().as_secs_f64();
            rec.exit(call);
            round.lat_ms.push((wall_s * 1e3) as f32);
            // one slot per solve
            let mut slot = Slot {
                wall_s,
                ops: 1,
                ..Slot::default()
            };
            slot.nnz[b] = c.graph.nnz();
            slot.secs[b] = wall_s;
            round.slots.push(slot);
            pace.tick(round);
            if got.as_ref() == Ok(want) {
                round.ok += 1;
            } else {
                round.failed += 1;
                eprintln!(
                    "perfbench: {} {:?} on {}: got {got:x?}, want {want:016x}",
                    ctx.backend_name(),
                    s,
                    c.graph.kind.label()
                );
            }
        }
    }
    rec.exit(span);
}

impl Workload for LibWorkload {
    fn round(&mut self, rec: &mut Recorder, pace: &mut Pace) -> Round {
        let mut round = Round::default();
        let span = rec.enter("round", 0);
        let cpu0 = crate::host::thread_cpu_s();
        let t0 = Instant::now();
        let req = &mut self.next_req;
        section(&self.seq, 0, &self.host, rec, pace, req, &mut round);
        section(&self.par, 1, &self.host, rec, pace, req, &mut round);
        let model0 = self.cuda.gpu_stats().modeled_time_s;
        section(&self.cuda, 2, &self.device, rec, pace, req, &mut round);
        // the device clock is one running f64 sum, so a difference of two
        // readings carries rounding that depends on how many rounds came
        // before; whole modeled nanoseconds repeat exactly
        let model_ns = ((self.cuda.gpu_stats().modeled_time_s - model0) * 1e9).round();
        round.cuda_model_ms = model_ns / 1e6;
        round.wall_s = t0.elapsed().as_secs_f64();
        round.gen_cpu_s = crate::host::thread_cpu_s() - cpu0;
        rec.exit(span);
        round
    }

    /// The library caller's reload: generate the reload graph, build its
    /// CSR and weights, prewarm its transposes — what the serve catalog
    /// does for `{"op":"load"}`.
    fn between(&mut self, last: &mut Round) {
        for _ in 0..crate::RELOADS_PER_ROUND {
            let t0 = Instant::now();
            let g = LibGraph::build(self.reload_kind);
            self.reload_ctx.prewarm_transpose(&g.adj);
            self.reload_ctx.prewarm_transpose(&g.weights);
            std::hint::black_box(&g);
            last.reload_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    fn family(&self) -> crate::host::Family {
        crate::host::Family::Library
    }

    fn set_tracing(&mut self, on: bool) {
        let mode = if on {
            TraceMode::Summary
        } else {
            TraceMode::Off
        };
        self.seq.set_trace_mode(mode);
        self.par.set_trace_mode(mode);
        self.cuda.set_trace_mode(mode);
    }

    fn layer_metrics(&mut self, m: &mut Metrics) {
        let (mut hits, mut misses) = (0u64, 0u64);
        for s in [
            self.seq.transpose_cache_stats(),
            self.par.transpose_cache_stats(),
            self.cuda.transpose_cache_stats(),
        ] {
            hits += s.hits;
            misses += s.misses;
        }
        m.insert(
            "core.transpose_hit_share",
            crate::stats::ratio(hits as f64, (hits + misses) as f64),
        );
    }

    fn teardown(self: Box<Self>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            seconds: 0.0,
            trace: false,
            smoke: true,
        }
    }

    #[test]
    fn solve_lists_are_a_function_of_the_seed() {
        let g = LibGraph::build(GraphKind::Rmat {
            scale: 8,
            ef: 8,
            seed: 1,
        });
        for kind in [LibKind::Traverse, LibKind::Algebra] {
            assert_eq!(solve_list(kind, 5, &g, 2), solve_list(kind, 5, &g, 2));
            assert_ne!(solve_list(kind, 5, &g, 2), solve_list(kind, 6, &g, 2));
        }
        for s in solve_list(LibKind::Traverse, 5, &g, 3) {
            if let Solve::Bfs(src) | Solve::Sssp(src) = s {
                assert!(
                    g.hubs.binary_search(&src).is_ok(),
                    "source is a hub of the component"
                );
            }
        }
    }

    #[test]
    fn a_smoke_round_is_correct_on_every_backend() {
        for kind in [LibKind::Traverse, LibKind::Algebra] {
            let mut w = LibWorkload::setup(kind, &smoke(3)).unwrap();
            w.warm_up().unwrap();
            let mut rec = Recorder::new();
            let mut r = w.round(&mut rec, &mut Pace::new());
            w.between(&mut r);
            assert_eq!(r.failed, 0);
            assert_eq!(r.ok as usize, r.lat_ms.len());
            assert_eq!(r.slots.len(), r.lat_ms.len(), "one slot per solve");
            for b in 0..3 {
                assert!(r.slots.iter().any(|s| s.nnz[b] > 0 && s.secs[b] > 0.0));
            }
            assert!(r.cuda_model_ms > 0.0);
            assert_eq!(r.reload_ms.len(), crate::RELOADS_PER_ROUND);
        }
    }

    #[test]
    fn traversal_dispatches_no_mxm_and_algebra_does_on_every_backend() {
        for (kind, wants_mxm) in [(LibKind::Traverse, false), (LibKind::Algebra, true)] {
            let mut w = LibWorkload::setup(kind, &smoke(3)).unwrap();
            w.warm_up().unwrap();
            w.set_tracing(true);
            let _ = w.round(&mut Recorder::new(), &mut Pace::new());
            for (backend, ops) in w.op_counts() {
                let mxm = ops.iter().any(|(op, n)| op == "mxm" && *n > 0);
                assert_eq!(mxm, wants_mxm, "{kind:?} on {backend}: {ops:?}");
            }
        }
    }
}
