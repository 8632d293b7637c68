//! Query execution: one engine per worker, three resident contexts.
//!
//! An [`Engine`] owns a sequential, a parallel, and a simulated-CUDA
//! [`Context`], all pinned to [`TraceMode::Off`]: an executed query records
//! no op spans. Each context still counts every GraphBLAS op it dispatches
//! ([`Context::dispatched_ops`], one relaxed atomic), and the server sums
//! those counts across engines into its `backend_ops` statistic — which is
//! exactly how the test suite proves the cache-hit path never touches a
//! backend. A `"trace":true` query sets its stamp's record bit, so the ring
//! keeps that query's spans and no other's.
//!
//! Results are rendered as a JSON `result` fragment: compact aggregates
//! plus an FNV-1a checksum over the full per-vertex answer (so clients can
//! assert bit-identical results across backends without shipping vectors),
//! with the full `[index, value]` entry list available on request
//! (`"full":true`).

use std::fmt::Write as _;

use gbtl_algorithms::{
    bfs_levels, bfs_levels_multi, cc::component_count, connected_components,
    maximal_independent_set, mis::verify_mis, pagerank, pagerank::PageRankOptions, sssp_multi,
    sssp_with_direction, triangle_count,
};
use gbtl_core::{
    Backend, Context, CudaBackend, ParBackend, SeqBackend, TraceMode, TraceReport, TransposeCache,
    Vector,
};
use gbtl_util::hash::{fnv1a_word, FNV_OFFSET};

use crate::catalog::GraphEntry;
use crate::protocol::{Algo, BackendChoice, QueryParams};

/// What one executed query produced.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Rendered `result` JSON fragment.
    pub result_json: String,
    /// Backend ops the query dispatched (from the dispatched-op counter).
    pub ops: u64,
    /// Rendered span array when the request asked for `"trace":true`.
    pub trace_json: Option<String>,
}

/// Per-worker execution engine: one context per backend, tracing off.
#[derive(Debug)]
pub struct Engine {
    seq: Context<SeqBackend>,
    par: Context<ParBackend>,
    cuda: Context<CudaBackend>,
}

/// Point-in-time counters from one engine (summed across engines by the
/// stats endpoint).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineSnapshot {
    /// Ops dispatched to the sequential backend.
    pub seq_ops: u64,
    /// Ops dispatched to the parallel backend.
    pub par_ops: u64,
    /// Ops dispatched to the simulated-CUDA backend.
    pub cuda_ops: u64,
    /// Work-stealing pool: tasks executed.
    pub pool_tasks: u64,
    /// Work-stealing pool: steals.
    pub pool_steals: u64,
    /// Simulated device: kernels launched.
    pub gpu_kernels: u64,
    /// Simulated device: modeled execution time, picoseconds.
    pub gpu_modeled_ps: u64,
}

impl std::iter::Sum for EngineSnapshot {
    fn sum<I: Iterator<Item = EngineSnapshot>>(iter: I) -> EngineSnapshot {
        iter.fold(EngineSnapshot::default(), |a, s| EngineSnapshot {
            seq_ops: a.seq_ops + s.seq_ops,
            par_ops: a.par_ops + s.par_ops,
            cuda_ops: a.cuda_ops + s.cuda_ops,
            pool_tasks: a.pool_tasks + s.pool_tasks,
            pool_steals: a.pool_steals + s.pool_steals,
            gpu_kernels: a.gpu_kernels + s.gpu_kernels,
            gpu_modeled_ps: a.gpu_modeled_ps + s.gpu_modeled_ps,
        })
    }
}

impl Engine {
    /// An engine whose parallel context uses `par_threads` workers, with a
    /// per-engine transpose cache configured from the environment.
    pub fn new(par_threads: usize) -> Self {
        Engine::with_transpose_cache(par_threads, TransposeCache::from_env())
    }

    /// An engine whose three contexts all share `cache` (a
    /// [`TransposeCache`] handle clones to the same store). The server
    /// passes one cache to every worker engine, so a transpose built by any
    /// query — or pre-warmed at graph load — is a hit for all of them.
    pub fn with_transpose_cache(par_threads: usize, cache: TransposeCache) -> Self {
        Engine {
            seq: Context::sequential()
                .with_trace_mode(TraceMode::Off)
                .with_transpose_cache(cache.clone()),
            par: Context::parallel_with_threads(par_threads)
                .with_trace_mode(TraceMode::Off)
                .with_transpose_cache(cache.clone()),
            cuda: Context::cuda_default()
                .with_trace_mode(TraceMode::Off)
                .with_transpose_cache(cache),
        }
    }

    /// Warm the transposes pull-direction queries need (boolean adjacency
    /// for BFS/PageRank, weights for SSSP) into the shared cache, so the
    /// first query after a load/reload/restore pays no transpose cost.
    ///
    /// Catalog graphs are symmetric by invariant (a load stores each edge
    /// with its mirror, [`crate::catalog::Catalog::install`] validates data
    /// off disk), so
    /// `Aᵀ == A` and the warm is O(1): each matrix's own buffer is seeded
    /// into the cache as its transpose — no counting pass, no copy.
    pub fn prewarm(&self, g: &GraphEntry) {
        self.seq.seed_symmetric_transpose(&g.adj);
        self.seq.seed_symmetric_transpose(&g.weights);
    }

    /// Total GraphBLAS ops this engine has dispatched, across backends.
    pub fn total_ops(&self) -> u64 {
        self.seq.dispatched_ops() + self.par.dispatched_ops() + self.cuda.dispatched_ops()
    }

    /// Counter snapshot for the stats endpoint.
    pub fn snapshot(&self) -> EngineSnapshot {
        let pool = self.par.pool_stats();
        let gpu = self.cuda.gpu_stats();
        EngineSnapshot {
            seq_ops: self.seq.dispatched_ops(),
            par_ops: self.par.dispatched_ops(),
            cuda_ops: self.cuda.dispatched_ops(),
            pool_tasks: pool.tasks_executed,
            pool_steals: pool.steals,
            gpu_kernels: gpu.kernels_launched,
            gpu_modeled_ps: gpu.modeled_ps,
        }
    }

    /// Execute `q` against `g` on the requested backend. `request_id`
    /// (when the server assigned one) is stamped onto every trace span the
    /// query dispatches, so traces group per request; `xray` (when the
    /// request was sampled) makes each dispatched op also land as an
    /// `op.*` child span under the given parent in the span-tree store.
    pub fn run(
        &self,
        g: &GraphEntry,
        q: &QueryParams,
        request_id: Option<u64>,
        xray: Option<gbtl_trace::TraceContext>,
    ) -> Result<QueryOutcome, String> {
        match q.backend {
            BackendChoice::Seq => run_on(&self.seq, g, q, request_id, xray),
            BackendChoice::Par => run_on(&self.par, g, q, request_id, xray),
            BackendChoice::Cuda => run_on(&self.cuda, g, q, request_id, xray),
        }
    }

    /// Execute a fused batch: every member traverses `g` with `algo` on
    /// `backend`, and the whole batch runs as **one** multi-source kernel —
    /// one push `mxm` per level instead of one `vxm` per level per member.
    /// Only `Direction::Auto` members reach a batch: a forced push and a
    /// forced pull both run solo.
    ///
    /// Members are `(source, full)` pairs; the returned fragments are
    /// positionally matched and **byte-identical** to what [`Engine::run`]
    /// renders for the same query solo — same kernel results (the multi
    /// kernels' correctness bar), same renderer (`bfs_result_json` /
    /// `sssp_result_json` are shared by both paths), same out-of-range
    /// error text. An out-of-range member gets its per-member `Err` without
    /// failing the rest of the batch.
    /// `xray` attributes the batch's shared kernel spans to one sampled
    /// member's trace (the batch runs once, so its ops can only parent
    /// into one tree — see gbtl-serve's fused span model).
    pub fn run_multi(
        &self,
        g: &GraphEntry,
        algo: Algo,
        backend: BackendChoice,
        members: &[(usize, bool)],
        xray: Option<gbtl_trace::TraceContext>,
    ) -> Vec<Result<String, String>> {
        match backend {
            BackendChoice::Seq => run_multi_on(&self.seq, g, algo, members, xray),
            BackendChoice::Par => run_multi_on(&self.par, g, algo, members, xray),
            BackendChoice::Cuda => run_multi_on(&self.cuda, g, algo, members, xray),
        }
    }
}

/// Digest a result in one walk over its stored pairs, returning its
/// checksum: FNV-1a over the dimension and then each `(index, value)` as
/// two little-endian words, `to_bits` mapping a value to its canonical
/// `u64` (identity for integers, IEEE bits for f64). `see` reads each pair
/// on the same walk, for the response's summary.
fn digest<T: gbtl_algebra::Scalar>(
    v: &Vector<T>,
    to_bits: impl Fn(T) -> u64,
    mut see: impl FnMut(usize, T),
) -> u64 {
    v.iter()
        .fold(fnv1a_word(FNV_OFFSET, v.len() as u64), |h, (i, x)| {
            see(i, x);
            fnv1a_word(fnv1a_word(h, i as u64), to_bits(x))
        })
}

/// Render the stored pairs as a JSON `[[index, value], ...]` array.
fn entries_json<T: gbtl_algebra::Scalar>(
    v: &Vector<T>,
    mut fmt_value: impl FnMut(T) -> String,
) -> String {
    let mut s = String::from("[");
    for (k, (i, x)) in v.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{i},{}]", fmt_value(x));
    }
    s.push(']');
    s
}

/// The solo and fused paths share one renderer per algorithm, so fusion
/// can only change *when* a result is computed, never what its bytes are.
fn bfs_result_json(levels: &Vector<u64>, full: bool) -> String {
    let (reached, mut max_level) = (levels.nnz(), 0);
    let checksum = digest(levels, |v| v, |_, v| max_level = max_level.max(v));
    let mut s = format!(
        "{{\"reached\":{reached},\"max_level\":{max_level},\"checksum\":\"{checksum:016x}\""
    );
    if full {
        let _ = write!(s, ",\"levels\":{}", entries_json(levels, |v| v.to_string()));
    }
    s.push('}');
    s
}

/// See [`bfs_result_json`].
fn sssp_result_json(dist: &Vector<u32>, full: bool) -> String {
    let (reached, mut max_dist) = (dist.nnz(), 0);
    let checksum = digest(dist, u64::from, |_, v| max_dist = max_dist.max(v));
    let mut s =
        format!("{{\"reached\":{reached},\"max_dist\":{max_dist},\"checksum\":\"{checksum:016x}\"");
    if full {
        let _ = write!(s, ",\"dist\":{}", entries_json(dist, |v| v.to_string()));
    }
    s.push('}');
    s
}

/// The out-of-range message both the solo and fused paths produce — one
/// format string so a member rejected from a batch reads exactly like a
/// solo rejection.
fn source_range_error(source: usize, g: &GraphEntry) -> String {
    format!(
        "source {} out of range for graph {:?} ({} vertices)",
        source,
        g.name,
        g.n()
    )
}

/// Clears the request stamp a query set on its context when this drops —
/// on return, on error and on *unwind* alike, so a query that failed or
/// panicked can't tag a later request's spans with its ids or leave the
/// ring recording them (the worker thread owns the context exclusively, so
/// no other request interleaves).
struct Stamps<'a, B: Backend>(&'a Context<B>);

impl<B: Backend> Drop for Stamps<'_, B> {
    fn drop(&mut self) {
        self.0.set_request(None, None);
        self.0.set_record(false);
    }
}

fn run_multi_on<B: Backend>(
    ctx: &Context<B>,
    g: &GraphEntry,
    algo: Algo,
    members: &[(usize, bool)],
    xray: Option<gbtl_trace::TraceContext>,
) -> Vec<Result<String, String>> {
    // out-of-range members get their solo-path error; the rest still fuse
    let valid: Vec<usize> = members
        .iter()
        .map(|&(src, _)| src)
        .filter(|&src| src < g.n())
        .collect();
    ctx.set_request(None, xray);
    let stamps = Stamps(ctx);
    let answers = match algo {
        Algo::Bfs => bfs_levels_multi(ctx, &g.adj, &valid)
            .map(|vs| {
                vs.iter()
                    .zip(members.iter().filter(|&&(src, _)| src < g.n()))
                    .map(|(levels, &(_, full))| bfs_result_json(levels, full))
                    .collect::<Vec<_>>()
            })
            .map_err(|e| e.to_string()),
        Algo::Sssp => sssp_multi(ctx, &g.weights, &valid)
            .map(|vs| {
                vs.iter()
                    .zip(members.iter().filter(|&&(src, _)| src < g.n()))
                    .map(|(dist, &(_, full))| sssp_result_json(dist, full))
                    .collect::<Vec<_>>()
            })
            .map_err(|e| e.to_string()),
        other => Err(format!("algo {:?} is not fusable", other)),
    };
    drop(stamps);
    match answers {
        Ok(fragments) => {
            let mut it = fragments.into_iter();
            members
                .iter()
                .map(|&(src, _)| {
                    if src < g.n() {
                        Ok(it.next().expect("one fragment per valid member"))
                    } else {
                        Err(source_range_error(src, g))
                    }
                })
                .collect()
        }
        Err(e) => members.iter().map(|_| Err(e.clone())).collect(),
    }
}

fn run_on<B: Backend>(
    ctx: &Context<B>,
    g: &GraphEntry,
    q: &QueryParams,
    request_id: Option<u64>,
    xray: Option<gbtl_trace::TraceContext>,
) -> Result<QueryOutcome, String> {
    if q.algo.takes_source() && q.source >= g.n() {
        return Err(source_range_error(q.source, g));
    }

    let ops_before = ctx.dispatched_ops();
    let spans_before = ctx.total_spans();
    ctx.set_request(request_id, xray);
    ctx.set_record(q.trace);
    let stamps = Stamps(ctx);
    let result = execute(ctx, g, q);
    drop(stamps);
    let result_json = result?;

    let ops = ctx.dispatched_ops() - ops_before;
    // the full report clones the span ring: only a request that asked for it
    let trace_json = q.trace.then(|| render_trace(&ctx.trace(), spans_before));

    Ok(QueryOutcome {
        result_json,
        ops,
        trace_json,
    })
}

/// Dispatch the algorithm and render its `result` JSON fragment.
fn execute<B: Backend>(
    ctx: &Context<B>,
    g: &GraphEntry,
    q: &QueryParams,
) -> Result<String, String> {
    Ok(match q.algo {
        Algo::Bfs => {
            let levels =
                bfs_levels(ctx, &g.adj, q.source, q.direction).map_err(|e| e.to_string())?;
            bfs_result_json(&levels, q.full)
        }
        Algo::Sssp => {
            let dist = sssp_with_direction(ctx, &g.weights, q.source, q.direction)
                .map_err(|e| e.to_string())?;
            sssp_result_json(&dist, q.full)
        }
        Algo::Pagerank => {
            let opts = PageRankOptions {
                damping: q.damping,
                max_iters: q.max_iters,
                ..PageRankOptions::default()
            };
            let (ranks, iters) = pagerank(ctx, &g.adj, opts).map_err(|e| e.to_string())?;
            // the sum starts at -0.0, as `Iterator::sum` does; the argmax
            // keeps the lowest index on ties
            let (mut sum, mut top, mut top_rank) = (-0.0, 0, f64::NEG_INFINITY);
            let checksum = digest(&ranks, f64::to_bits, |i, v| {
                sum += v;
                if v > top_rank {
                    (top, top_rank) = (i, v);
                }
            });
            let mut s = format!(
                "{{\"iterations\":{iters},\"sum\":{sum:.6},\"top\":{top},\
                 \"top_rank\":{top_rank:.6},\"checksum\":\"{checksum:016x}\""
            );
            if q.full {
                let _ = write!(
                    s,
                    ",\"ranks\":{}",
                    entries_json(&ranks, |v| format!("{v:e}"))
                );
            }
            s.push('}');
            s
        }
        Algo::TriangleCount => {
            let t = triangle_count(ctx, &g.adj).map_err(|e| e.to_string())?;
            format!("{{\"triangles\":{t}}}")
        }
        Algo::Cc => {
            let labels = connected_components(ctx, &g.adj).map_err(|e| e.to_string())?;
            let components = component_count(&labels);
            let checksum = digest(&labels, |v| v, |_, _| {});
            let mut s = format!("{{\"components\":{components},\"checksum\":\"{checksum:016x}\"");
            if q.full {
                let _ = write!(
                    s,
                    ",\"labels\":{}",
                    entries_json(&labels, |v| v.to_string())
                );
            }
            s.push('}');
            s
        }
        Algo::Mis => {
            let set = maximal_independent_set(ctx, &g.adj, q.seed).map_err(|e| e.to_string())?;
            let mut size = 0usize;
            let checksum = digest(&set, u64::from, |_, v| size += usize::from(v));
            let independent = verify_mis(&g.adj, &set);
            let mut s = format!(
                "{{\"size\":{size},\"independent\":{independent},\"checksum\":\"{checksum:016x}\""
            );
            if q.full {
                let _ = write!(s, ",\"set\":{}", entries_json(&set, |v| v.to_string()));
            }
            s.push('}');
            s
        }
    })
}

/// Render the spans dispatched since `spans_before` as a JSON array; each
/// carries the request id it was stamped with, when one was set.
fn render_trace(report: &TraceReport, spans_before: u64) -> String {
    let mut s = String::from("[");
    let mut first = true;
    for span in report.spans.iter().filter(|sp| sp.seq >= spans_before) {
        if !first {
            s.push(',');
        }
        first = false;
        let request_part = span
            .request_id
            .map(|id| format!("\"request_id\":{id},"))
            .unwrap_or_default();
        let _ = write!(
            s,
            "{{{request_part}\"op\":\"{}\",\"ns\":{},\"nnz_in\":{},\"nnz_out\":{}}}",
            gbtl_util::json::escape(span.fields.op),
            span.duration_ns,
            span.fields.nnz_in,
            span.fields.nnz_out
        );
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, GraphSpec};
    use gbtl_algebra::{Scalar, Semiring};
    use gbtl_algorithms::Direction;
    use gbtl_sparse::{CsrMatrix, SparseVector, VecMask};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn params(algo: Algo, backend: BackendChoice) -> QueryParams {
        QueryParams {
            id: None,
            graph: "k".into(),
            algo,
            backend,
            source: 0,
            damping: 0.85,
            max_iters: 100,
            seed: 7,
            direction: Direction::Auto,
            full: false,
            trace: false,
            deadline_ms: None,
        }
    }

    #[test]
    fn every_algo_runs_and_matches_across_backends() {
        let cat = Catalog::new();
        let g = cat.load("k", &GraphSpec::Karate).unwrap();
        let engine = Engine::new(2);
        for algo in Algo::ALL {
            let outcomes: Vec<String> =
                [BackendChoice::Seq, BackendChoice::Par, BackendChoice::Cuda]
                    .into_iter()
                    .map(|b| {
                        engine
                            .run(&g, &params(algo, b), None, None)
                            .unwrap()
                            .result_json
                    })
                    .collect();
            assert_eq!(outcomes[0], outcomes[1], "{algo:?} seq vs par");
            assert_eq!(outcomes[0], outcomes[2], "{algo:?} seq vs cuda");
            gbtl_util::json::parse(&outcomes[0]).expect("result fragment parses");
        }
        assert!(engine.total_ops() > 0);
        let snap = engine.snapshot();
        assert!(snap.seq_ops > 0 && snap.par_ops > 0 && snap.cuda_ops > 0);
        assert!(snap.gpu_kernels > 0);
    }

    #[test]
    fn known_answers_on_karate() {
        let cat = Catalog::new();
        let g = cat.load("k", &GraphSpec::Karate).unwrap();
        let engine = Engine::new(2);
        let tc = engine
            .run(
                &g,
                &params(Algo::TriangleCount, BackendChoice::Seq),
                None,
                None,
            )
            .unwrap();
        assert_eq!(tc.result_json, "{\"triangles\":45}");
        let cc = engine
            .run(&g, &params(Algo::Cc, BackendChoice::Seq), None, None)
            .unwrap();
        let v = gbtl_util::json::parse(&cc.result_json).unwrap();
        assert_eq!(v.u64_field("components"), Some(1));
        let bfs = engine
            .run(&g, &params(Algo::Bfs, BackendChoice::Seq), None, None)
            .unwrap();
        let v = gbtl_util::json::parse(&bfs.result_json).unwrap();
        assert_eq!(v.u64_field("reached"), Some(34), "karate is connected");
        let mis = engine
            .run(&g, &params(Algo::Mis, BackendChoice::Seq), None, None)
            .unwrap();
        let v = gbtl_util::json::parse(&mis.result_json).unwrap();
        assert_eq!(v.bool_field("independent"), Some(true));
    }

    #[test]
    fn full_and_trace_payloads() {
        let cat = Catalog::new();
        let g = cat.load("k", &GraphSpec::Karate).unwrap();
        let engine = Engine::new(1);
        let mut p = params(Algo::Bfs, BackendChoice::Seq);
        p.full = true;
        p.trace = true;
        let out = engine.run(&g, &p, Some(41), None).unwrap();
        assert!(out.ops > 0);
        let v = gbtl_util::json::parse(&out.result_json).unwrap();
        let levels = v.get("levels").unwrap().as_arr().unwrap();
        assert_eq!(levels.len(), 34);
        let spans = gbtl_util::json::parse(&out.trace_json.unwrap()).unwrap();
        let spans = spans.as_arr().unwrap();
        assert_eq!(spans.len() as u64, out.ops);
        // the lock-free count is the ring's own: this fresh engine's
        // sequential context has recorded exactly this query's ops
        assert_eq!(engine.seq.trace().total_spans, out.ops);
        assert_eq!(engine.snapshot().seq_ops, out.ops);
        // every span the query dispatched carries the request id it ran under
        for sp in spans {
            assert_eq!(sp.u64_field("request_id"), Some(41));
        }
        // and the id does not leak onto later un-stamped work
        p.trace = true;
        let again = engine.run(&g, &p, None, None).unwrap();
        let spans = gbtl_util::json::parse(&again.trace_json.unwrap()).unwrap();
        for sp in spans.as_arr().unwrap() {
            assert_eq!(sp.u64_field("request_id"), None);
        }
    }

    /// `(op, nnz_in, nnz_out)` of every span in a rendered `"trace"` array.
    fn rendered_ops(trace_json: &str) -> Vec<(String, u64, u64)> {
        let spans = gbtl_util::json::parse(trace_json).unwrap();
        spans
            .as_arr()
            .unwrap()
            .iter()
            .map(|sp| {
                let op = sp.get("op").unwrap().as_str().unwrap().to_string();
                let nnz = |k| sp.u64_field(k).unwrap();
                (op, nnz("nnz_in"), nnz("nnz_out"))
            })
            .collect()
    }

    /// On one backend of a fresh engine: an untraced query leaves the ring
    /// empty and is counted; a traced one leaves exactly its own spans,
    /// the op sequence a context that always records renders for it.
    fn records_only_traced_queries<B: Backend>(
        engine: &Engine,
        ctx: &Context<B>,
        always: Context<B>,
        g: &GraphEntry,
        backend: BackendChoice,
    ) {
        assert_eq!(ctx.trace_mode(), TraceMode::Off);
        let first = engine
            .run(g, &params(Algo::Cc, backend), None, None)
            .unwrap();
        assert!(first.ops > 0 && ctx.trace().spans.is_empty());
        assert_eq!(ctx.dispatched_ops(), first.ops);
        run_on(&always, g, &params(Algo::Cc, backend), None, None).unwrap();
        for algo in [Algo::Bfs, Algo::Sssp, Algo::Pagerank] {
            let mut p = params(algo, backend);
            let (before, spans_before) = (ctx.dispatched_ops(), ctx.total_spans());
            let out = engine.run(g, &p, Some(5), None).unwrap();
            assert!(out.ops > 0, "{algo:?} on {backend:?}");
            assert_eq!(out.ops, ctx.dispatched_ops() - before);
            assert_eq!(ctx.total_spans(), spans_before, "{algo:?} on {backend:?}");
            assert_eq!(run_on(&always, g, &p, Some(5), None).unwrap().ops, out.ops);

            p.trace = true;
            let out = engine.run(g, &p, Some(6), None).unwrap();
            let ring = ctx.trace();
            assert_eq!(ring.total_spans - spans_before, out.ops);
            let own: Vec<_> = ring
                .spans
                .iter()
                .filter(|sp| sp.seq >= spans_before)
                .collect();
            assert_eq!(own.len() as u64, out.ops, "{algo:?} on {backend:?}");
            assert!(own.iter().all(|sp| sp.request_id == Some(6)));
            let reference = run_on(&always, g, &p, Some(6), None).unwrap();
            assert_eq!(
                rendered_ops(&out.trace_json.unwrap()),
                rendered_ops(&reference.trace_json.unwrap()),
                "{algo:?} on {backend:?}"
            );
        }
    }

    #[test]
    fn serving_contexts_record_only_traced_queries() {
        let cat = Catalog::new();
        let g = cat.load("k", &GraphSpec::Karate).unwrap();
        let e = Engine::new(2);
        let always = Context::sequential().with_trace_mode(TraceMode::Summary);
        records_only_traced_queries(&e, &e.seq, always, &g, BackendChoice::Seq);
        let e = Engine::new(2);
        let always = Context::parallel_with_threads(2).with_trace_mode(TraceMode::Summary);
        records_only_traced_queries(&e, &e.par, always, &g, BackendChoice::Par);
        let e = Engine::new(2);
        let always = Context::cuda_default().with_trace_mode(TraceMode::Summary);
        records_only_traced_queries(&e, &e.cuda, always, &g, BackendChoice::Cuda);
    }

    #[test]
    fn forced_directions_match_auto_bytes() {
        let cat = Catalog::new();
        let g = cat.load("k", &GraphSpec::Karate).unwrap();
        let engine = Engine::new(2);
        engine.prewarm(&g); // symmetric seed: auto may pull, and must still match
        for algo in [Algo::Bfs, Algo::Sssp] {
            for b in [BackendChoice::Seq, BackendChoice::Par, BackendChoice::Cuda] {
                let mut p = params(algo, b);
                p.full = true;
                let auto = engine.run(&g, &p, None, None).unwrap().result_json;
                for d in [Direction::Push, Direction::Pull] {
                    p.direction = d;
                    let forced = engine.run(&g, &p, None, None).unwrap().result_json;
                    assert_eq!(auto, forced, "{algo:?} on {b:?}, {d:?} vs auto");
                }
                p.direction = Direction::Auto;
            }
        }
    }

    /// A backend that names itself and whose products panic (`vxm` under a
    /// solo push traversal, `mxm` under a fused one) — the stand-in for a
    /// kernel bug, with no injector in the product code.
    struct PanickingProducts;

    impl Backend for PanickingProducts {
        fn name(&self) -> &'static str {
            "panicking-products"
        }

        fn vxm<T, D2, S>(
            &self,
            _u: &SparseVector<T>,
            _a: &CsrMatrix<D2>,
            _sr: S,
            _mask: Option<VecMask<'_>>,
        ) -> SparseVector<T>
        where
            T: Scalar,
            D2: Scalar,
            S: Semiring<T, T, D2>,
        {
            panic!("kernel bug")
        }

        fn mxm<T: Scalar, D1: Scalar, D2: Scalar, S: Semiring<T, D1, D2>>(
            &self,
            _a: &CsrMatrix<D1>,
            _b: &CsrMatrix<D2>,
            _sr: S,
        ) -> CsrMatrix<T> {
            panic!("kernel bug")
        }
    }

    #[test]
    fn a_panicking_query_leaves_no_stamps_behind() {
        let cat = Catalog::new();
        let g = cat.load("k", &GraphSpec::Karate).unwrap();
        let ctx = Context::with_backend(PanickingProducts);
        let mut p = params(Algo::Bfs, BackendChoice::Seq);
        p.direction = Direction::Push;
        let xray = gbtl_trace::TraceContext {
            trace_id: 7,
            parent_span: 3,
        };
        let solo = catch_unwind(AssertUnwindSafe(|| {
            run_on(&ctx, &g, &p, Some(41), Some(xray))
        }));
        assert!(solo.is_err(), "the kernel's panic unwinds through run_on");
        assert_eq!(ctx.request(), (None, None));
        let fused = catch_unwind(AssertUnwindSafe(|| {
            run_multi_on(&ctx, &g, Algo::Bfs, &[(0, false), (1, false)], Some(xray))
        }));
        assert!(fused.is_err(), "and through run_multi_on");
        assert_eq!(ctx.request(), (None, None));
    }

    #[test]
    fn the_record_bit_is_cleared_on_unwind_and_on_error() {
        let cat = Catalog::new();
        let g = cat.load("k", &GraphSpec::Karate).unwrap();
        let engine = Engine::new(1);
        let ctx = &engine.seq;
        // a fused batch stamps no record bit of its own, so it runs under
        // whatever bit the query before it left behind
        let untraced_batch_records_nothing = || {
            let spans = ctx.total_spans();
            let batch = engine.run_multi(&g, Algo::Bfs, BackendChoice::Seq, &[(0, false)], None);
            assert!(batch[0].is_ok());
            assert_eq!(ctx.total_spans(), spans, "the ring gains nothing");
        };

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            ctx.set_request(Some(1), None);
            ctx.set_record(true);
            let _stamps = Stamps(ctx);
            panic!("a query panics mid-kernel");
        }));
        assert!(unwound.is_err());
        untraced_batch_records_nothing();

        // a traced query whose algorithm fails after the stamp was set
        let mut failing = params(Algo::Pagerank, BackendChoice::Seq);
        failing.damping = 1.5;
        failing.trace = true;
        assert!(engine.run(&g, &failing, Some(2), None).is_err());
        assert_eq!(ctx.request(), (None, None));
        untraced_batch_records_nothing();
    }

    #[test]
    fn source_out_of_range_is_an_error_not_a_panic() {
        let cat = Catalog::new();
        let g = cat.load("k", &GraphSpec::Karate).unwrap();
        let engine = Engine::new(1);
        let mut p = params(Algo::Bfs, BackendChoice::Seq);
        p.source = 999;
        assert!(engine.run(&g, &p, None, None).is_err());
        // non-source algos ignore source entirely
        p.algo = Algo::TriangleCount;
        assert!(engine.run(&g, &p, None, None).is_ok());
    }
}
