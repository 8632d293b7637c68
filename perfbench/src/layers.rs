//! Per-layer metrics: each crate timed through its public functions, from
//! outside, and the counters the crates already expose read back.
//!
//! Two kinds. **Probes** ([`probes`]) are fixed micro-workloads on
//! constant inputs — the same on every workload and every seed, so their
//! counts repeat exactly and their times compare across PRs. **Workload
//! counters** ([`from_server`], [`from_process`]) are what the traced
//! workload's own run left in the stack's counters; a layer the workload
//! does not cross reports 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use gbtl_algebra::{LorLand, Plus, PlusMonoid, PlusPair, PlusTimes, TriL};
use gbtl_algorithms::pagerank::PageRankOptions;
use gbtl_algorithms::{
    adjacency, bfs_levels, bfs_levels_multi, connected_components, maximal_independent_set,
    pagerank, pattern_matrix, sssp, triangle_count, Direction,
};
use gbtl_core::{
    no_accum, Backend, Context, Descriptor, DirectionCounters, DirectionPolicy, Matrix, TraceMode,
    TransposeCache, Vector,
};
use gbtl_gpu_sim::{primitives, Gpu, GpuConfig};
use gbtl_serve::cache::{cache_key, CachedResult, ResultCache};
use gbtl_serve::catalog::{Catalog, GraphSpec};
use gbtl_serve::engine::Engine as QueryEngine;
use gbtl_serve::protocol::{parse_request, Request};
use gbtl_serve::ServerConfig;
use gbtl_util::json::Value;

use crate::client::{drive, Conn};
use crate::graphs::{GraphKind, LibGraph};
use crate::rng::Rng;
use crate::run::{Metrics, Round};
use crate::stack::{call, Stack};
use crate::stats::{median, percentile, ratio as share};
use crate::wirework::WireWorkload;

// ---------------------------------------------------------------- timing

/// Nanoseconds per call of `f`: best mean of five batches, each sized to
/// about `budget` from a calibration batch.
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut n = 16u64;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        let took = t.elapsed();
        if took >= budget / 4 || n >= 1 << 24 {
            break;
        }
        n *= 4;
    }
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

/// Milliseconds of every one of `reps` calls of `f`.
fn ms_each(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Median milliseconds of `reps` calls of `f`.
fn ms_p50(reps: usize, f: impl FnMut()) -> f64 {
    median(&ms_each(reps, f))
}

const TINY: Duration = Duration::from_millis(4);

// ------------------------------------------------------ workload counters

/// Every numeric leaf of `v`, keyed by its dotted path, added into `out`.
fn flatten(v: &Value, path: &str, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Num(x) => *out.entry(path.to_string()).or_insert(0.0) += x,
        Value::Obj(fields) => {
            for (k, child) in fields {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                flatten(child, &p, out);
            }
        }
        _ => {}
    }
}

/// The server counters a workload's deltas are taken over.
#[derive(Debug, Clone, Default)]
pub struct ServerCounters {
    /// Member-pool `stats`, numeric leaves summed across pools.
    pools: BTreeMap<String, f64>,
    /// The front door's `stats` (carries the `net` block).
    front: BTreeMap<String, f64>,
    /// `requests.completed` per pool.
    completed: Vec<f64>,
}

impl ServerCounters {
    /// Read them from a running workload.
    pub fn read(w: &mut WireWorkload) -> Result<ServerCounters, String> {
        let mut c = ServerCounters::default();
        for stats in w.pool_stats()? {
            let mut one = BTreeMap::new();
            flatten(&stats, "", &mut one);
            c.completed
                .push(one.get("stats.requests.completed").copied().unwrap_or(0.0));
            for (k, v) in one {
                *c.pools.entry(k).or_insert(0.0) += v;
            }
        }
        flatten(&w.ask("{\"op\":\"stats\"}")?, "", &mut c.front);
        Ok(c)
    }
}

/// Merge the `gbtl_stage_latency_us` histograms of one stage across every
/// label set and return the median's bucket bound, µs.
fn stage_p50(histograms: &[Value], stage: &str) -> f64 {
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    for h in histograms {
        let labels = h.get("labels");
        if h.str_field("name") != Some("gbtl_stage_latency_us")
            || labels.and_then(|l| l.str_field("stage")) != Some(stage)
        {
            continue;
        }
        for b in h.get("buckets").and_then(Value::as_arr).unwrap_or(&[]) {
            if let (Some(le), Some(n)) = (b.u64_field("le"), b.u64_field("count")) {
                *buckets.entry(le).or_insert(0) += n;
            }
        }
    }
    let total: u64 = buckets.values().sum();
    let mut seen = 0;
    for (le, n) in buckets {
        seen += n;
        if 2 * seen >= total {
            return le as f64;
        }
    }
    0.0
}

/// Per-layer metrics read from the traced wire workload's own server:
/// deltas since `w`'s warm-up for counters, lifetime for histograms.
pub fn from_server(w: &mut WireWorkload, m: &mut Metrics) -> Result<(), String> {
    let base = w.baseline.clone();
    let now = ServerCounters::read(w)?;
    let pool = |k: &str| now.pools.get(k).unwrap_or(&0.0) - base.pools.get(k).unwrap_or(&0.0);
    let front = |k: &str| now.front.get(k).unwrap_or(&0.0) - base.front.get(k).unwrap_or(&0.0);

    let (hits, misses) = (pool("stats.cache.hits"), pool("stats.cache.misses"));
    m.insert("serve.cache_hit_share", share(hits, hits + misses));
    let refused = pool("stats.requests.rejected_overloaded")
        + pool("stats.requests.rejected_shutdown")
        + pool("stats.requests.deadline_expired");
    m.insert(
        "serve.rejected_share",
        share(refused, pool("stats.requests.received")),
    );
    let (th, tm) = (
        pool("stats.transpose_cache.hits"),
        pool("stats.transpose_cache.misses"),
    );
    m.insert("core.transpose_hit_share", share(th, th + tm));

    let answered = front("stats.net.completions").max(pool("stats.requests.completed"));
    m.insert(
        "net.bytes_out_per_req",
        share(front("stats.net.bytes_out"), answered),
    );
    m.insert(
        "net.backpressure_events",
        front("stats.net.backpressure_events"),
    );

    let done: Vec<f64> = now
        .completed
        .iter()
        .zip(base.completed.iter().chain(std::iter::repeat(&0.0)))
        .map(|(n, b)| n - b)
        .collect();
    let mean = done.iter().sum::<f64>() / done.len().max(1) as f64;
    m.insert(
        "shard.imbalance",
        share(done.iter().copied().fold(0.0, f64::max), mean),
    );
    m.insert("shard.restore_ms", w.restore_ms);

    let metrics = w.ask("{\"op\":\"metrics\"}")?;
    let registry = metrics.get("metrics").and_then(|x| x.get("registry"));
    let list = |key: &str| -> &[Value] {
        registry
            .and_then(|r| r.get(key))
            .and_then(Value::as_arr)
            .unwrap_or(&[])
    };
    let histograms = list("histograms");
    m.insert("serve.queue_wait_us_p50", stage_p50(histograms, "queue"));
    m.insert("serve.execute_us_p50", stage_p50(histograms, "execute"));
    m.insert("serve.serialize_us_p50", stage_p50(histograms, "serialize"));
    let (mut batches, mut members) = (0.0, 0.0);
    for h in histograms {
        if h.str_field("name") == Some("gbtl_fuse_batch_size") {
            batches += h.f64_field("count").unwrap_or(0.0);
            members += h.f64_field("sum").unwrap_or(0.0);
        }
    }
    m.insert("fuse.batch_size_mean", share(members, batches));
    let (mut fused, mut windowed) = (0.0, 0.0);
    for c in list("counters") {
        if c.str_field("name") == Some("gbtl_fuse_requests_total") {
            let v = c.f64_field("value").unwrap_or(0.0);
            windowed += v;
            if c.get("labels").and_then(|l| l.str_field("path")) == Some("fused") {
                fused += v;
            }
        }
    }
    m.insert("fuse.fused_share", share(fused, windowed));
    Ok(())
}

/// Per-layer metrics every workload derives from its own timed phase:
/// the process-wide direction counters and the generator's own numbers.
pub fn from_process(
    rounds: &[Round],
    directions: (DirectionCounters, DirectionCounters),
    m: &mut Metrics,
) {
    let (d0, d1) = directions;
    let (push, pull) = (
        (d1.push_levels - d0.push_levels) as f64,
        (d1.pull_levels - d0.pull_levels) as f64,
    );
    m.insert("core.pull_level_share", share(pull, push + pull));
    m.insert(
        "core.rep_switches",
        (d1.rep_switches - d0.rep_switches) as f64 / rounds.len().max(1) as f64,
    );
    let lat = crate::run::latencies(rounds);
    m.insert("client.latency_ms_p95", percentile(&lat, 95.0));
    m.insert("client.latency_ms_p99", percentile(&lat, 99.0));
    m.insert("client.samples", lat.len() as f64);
    let scatter: Vec<f64> = rounds.iter().flat_map(|r| r.scatter_ms.clone()).collect();
    m.insert("shard.scatter_ms_p50", percentile(&scatter, 50.0));
    // tracing overhead: the traced rounds' throughput against the
    // untraced rounds' of the same run
    let wall = |traced: bool| {
        median(
            &rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let (plain, traced) = (wall(false), wall(true));
    m.insert(
        "client.trace_overhead_share",
        if traced > 0.0 {
            1.0 - plain / traced
        } else {
            0.0
        },
    );
}

/// Zero for every workload-counter metric a library workload cannot have:
/// it crosses no serve, net, fuse or shard layer.
pub fn library_zeros(m: &mut Metrics) {
    for name in [
        "serve.cache_hit_share",
        "serve.rejected_share",
        "serve.queue_wait_us_p50",
        "serve.execute_us_p50",
        "serve.serialize_us_p50",
        "net.bytes_out_per_req",
        "net.backpressure_events",
        "fuse.batch_size_mean",
        "fuse.fused_share",
        "shard.imbalance",
        "shard.restore_ms",
    ] {
        m.insert(name, 0.0);
    }
}

// ----------------------------------------------------------------- probes

/// Sizes of the probe inputs.
struct Sizes {
    /// The probe graph every kernel probe runs on.
    graph: GraphKind,
    /// The smaller graph for the quadratic-ish probes (masked mxm, the
    /// 32-way multi-source BFS, the device-count suite).
    small: GraphKind,
    grid: GraphKind,
    /// Keys for the gpu-sim primitive probes.
    keys: usize,
    /// Dimension for the representation-switch probe.
    vector: usize,
    reps: usize,
}

fn sizes(smoke: bool) -> Sizes {
    let rmat = |scale| GraphKind::Rmat {
        scale,
        ef: 8,
        seed: 1,
    };
    if smoke {
        Sizes {
            graph: rmat(8),
            small: rmat(6),
            grid: GraphKind::Grid { side: 8 },
            keys: 10_000,
            vector: 4096,
            reps: 2,
        }
    } else {
        Sizes {
            graph: rmat(14),
            small: rmat(10),
            grid: GraphKind::Grid { side: 64 },
            keys: 1_000_000,
            vector: 65_536,
            reps: 5,
        }
    }
}

/// The kernel probes of one backend crate.
fn backend_probes<B: Backend>(
    ctx: &Context<B>,
    names: [&'static str; 6],
    g: &LibGraph,
    small: &LibGraph,
    reps: usize,
    m: &mut Metrics,
) -> f64 {
    let n = g.adj.nrows();
    let nnz = g.adj.nnz() as f64;
    ctx.seed_symmetric_transpose(&g.adj);
    let mteps = |edges: f64, ms: f64| edges / (ms / 1e3) / 1e6;

    // push: a 1 % frontier of component vertices
    let mut rng = Rng::new(1, "probe-frontier");
    let members = rng.sample(&g.giant, (n / 100).max(1));
    let mut frontier: Vector<bool> = Vector::new(n);
    let mut touched = 0usize;
    for &v in &members {
        frontier.set(v, true);
        touched += g.adj.csr().row_nnz(v);
    }
    let ms = ms_p50(reps, || {
        let mut w: Vector<bool> = Vector::new(n);
        ctx.vxm(
            &mut w,
            None,
            no_accum(),
            LorLand::new(),
            &frontier,
            &g.adj,
            &Descriptor::new(),
        )
        .expect("vxm");
        black_box(w);
    });
    m.insert(names[0], mteps(touched as f64, ms));

    // pull: full bitmap frontier, half the vertices already visited
    let mut dense: Vector<bool> = Vector::new_dense(n);
    let mut visited: Vector<bool> = Vector::new_dense(n);
    for i in 0..n {
        dense.set(i, true);
        if i % 2 == 0 {
            visited.set(i, true);
        }
    }
    let pull = Descriptor::new().transpose_a().complement_mask().replace();
    let ms = ms_p50(reps, || {
        let mut w: Vector<bool> = Vector::new(n);
        ctx.mxv(
            &mut w,
            Some(&visited),
            no_accum(),
            LorLand::new(),
            &g.adj,
            &dense,
            &pull,
        )
        .expect("masked mxv");
        black_box(w);
    });
    m.insert(names[1], mteps(nnz, ms));

    // the PageRank product: dense f64 vector, (+, ×)
    let a_f = pattern_matrix(ctx, &g.adj, 1.0f64);
    ctx.seed_symmetric_transpose(&a_f);
    let ones: Vector<f64> = Vector::filled(n, 1.0);
    let mxv_ms = ms_p50(reps, || {
        let mut w: Vector<f64> = Vector::new_dense(n);
        ctx.mxv(
            &mut w,
            None,
            no_accum(),
            PlusTimes::<f64>::new(),
            &a_f,
            &ones,
            &Descriptor::new().transpose_a(),
        )
        .expect("mxv");
        black_box(w);
    });
    m.insert(names[2], mteps(nnz, mxv_ms));

    // the triangle-count product: C<L> = L (+,pair) Lᵀ
    let l_bool = ctx.select_mat_new(TriL, &small.adj);
    let l = pattern_matrix(ctx, &l_bool, 1u64);
    let ms = ms_p50(reps, || {
        let mut c = Matrix::new(l.nrows(), l.ncols());
        ctx.mxm(
            &mut c,
            Some(&l_bool),
            no_accum(),
            PlusPair::<u64>::new(),
            &l,
            &l,
            &Descriptor::new().transpose_b(),
        )
        .expect("masked mxm");
        black_box(c);
    });
    m.insert(names[3], ms);

    let ms = ms_p50(reps, || {
        let mut c = Matrix::new(n, n);
        ctx.ewise_add_mat(
            &mut c,
            None,
            no_accum(),
            Plus::new(),
            &a_f,
            &a_f,
            &Descriptor::new(),
        )
        .expect("eWiseAdd");
        black_box(c);
    });
    m.insert(names[4], ms);

    let ms = ms_p50(reps, || {
        let mut w: Vector<f64> = Vector::new(n);
        ctx.reduce_rows(
            &mut w,
            None,
            no_accum(),
            PlusMonoid::<f64>::new(),
            &a_f,
            &Descriptor::new(),
        )
        .expect("reduce_rows");
        black_box(w);
    });
    m.insert(names[5], ms);
    mxv_ms
}

/// Every probe metric. `out` is a scratch directory inside the checkout.
pub fn probes(smoke: bool, out: &std::path::Path, m: &mut Metrics) -> Result<(), String> {
    let sz = sizes(smoke);
    let reps = sz.reps;

    // graphgen + sparse
    m.insert(
        "graphgen.rmat_gen_ms",
        ms_p50(3, || drop(black_box(sz.graph.generate()))),
    );
    let mut copies: Vec<_> = (0..3).map(|_| sz.graph.generate()).collect();
    m.insert(
        "sparse.csr_build_ms",
        ms_p50(3, || {
            drop(black_box(adjacency(
                copies.pop().expect("one copy per rep"),
            )))
        }),
    );
    let g = LibGraph::build(sz.graph);
    let small = LibGraph::build(sz.small);
    let grid = LibGraph::build(sz.grid);
    m.insert(
        "sparse.transpose_ms",
        ms_p50(reps, || drop(black_box(g.adj.csr().transpose()))),
    );
    {
        let mut rng = Rng::new(1, "probe-vector");
        let all: Vec<usize> = (0..sz.vector).collect();
        let mut v: Vector<bool> = Vector::new(sz.vector);
        for i in rng.sample(&all, sz.vector / 100) {
            v.set(i, true);
        }
        let (mut dense_us, mut sparse_us) = (Vec::new(), Vec::new());
        for _ in 0..50 {
            let t = Instant::now();
            v.densify();
            dense_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            v.sparsify();
            sparse_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        m.insert("sparse.densify_us", median(&dense_us));
        m.insert("sparse.sparsify_us", median(&sparse_us));
    }
    {
        let csr = g.adj.csr();
        let mut buf = Vec::new();
        let enc = ms_p50(reps, || {
            buf.clear();
            gbtl_sparse::snapshot::write_csr(&mut buf, csr).expect("encode");
        });
        let mb = buf.len() as f64 / 1e6;
        let dec = ms_p50(reps, || {
            let m = gbtl_sparse::snapshot::read_csr::<bool, _>(&mut buf.as_slice());
            drop(black_box(m.expect("decode")));
        });
        m.insert("sparse.gbsnap_encode_mb_s", mb / (enc / 1e3));
        m.insert("sparse.gbsnap_decode_mb_s", mb / (dec / 1e3));
    }

    // the three backend crates
    let seq = Context::sequential();
    let par = Context::parallel_with_threads(crate::libwork::PAR_THREADS);
    let cuda = Context::cuda_default();
    let seq_mxv = backend_probes(
        &seq,
        [
            "backend-seq.vxm_sparse_mteps",
            "backend-seq.mxv_masked_mteps",
            "backend-seq.mxv_mteps",
            "backend-seq.mxm_masked_ms",
            "backend-seq.ewise_add_ms",
            "backend-seq.reduce_ms",
        ],
        &g,
        &small,
        reps,
        m,
    );
    let p0 = par.pool_stats();
    let t0 = Instant::now();
    let par_mxv = backend_probes(
        &par,
        [
            "backend-par.vxm_sparse_mteps",
            "backend-par.mxv_masked_mteps",
            "backend-par.mxv_mteps",
            "backend-par.mxm_masked_ms",
            "backend-par.ewise_add_ms",
            "backend-par.reduce_ms",
        ],
        &g,
        &small,
        reps,
        m,
    );
    let par_wall_ns = t0.elapsed().as_nanos() as f64;
    let p1 = par.pool_stats();
    m.insert("backend-par.speedup_mxv", share(seq_mxv, par_mxv));
    m.insert(
        "backend-par.steal_share",
        share(
            (p1.steals - p0.steals) as f64,
            (p1.tasks_executed - p0.tasks_executed) as f64,
        ),
    );
    m.insert(
        "backend-par.busy_share",
        share(
            (p1.busy_total_ns() - p0.busy_total_ns()) as f64,
            par_wall_ns * p1.threads as f64,
        ),
    );
    backend_probes(
        &cuda,
        [
            "backend-cuda.vxm_sparse_mteps",
            "backend-cuda.mxv_masked_mteps",
            "backend-cuda.mxv_mteps",
            "backend-cuda.mxm_masked_ms",
            "backend-cuda.ewise_add_ms",
            "backend-cuda.reduce_ms",
        ],
        &g,
        &small,
        reps,
        m,
    );

    // gpu-sim: exact counts of a fixed device suite, then host cost
    {
        let dev = Context::cuda_default();
        dev.seed_symmetric_transpose(&small.adj);
        dev.seed_symmetric_transpose(&small.weights);
        let src = small.giant[0];
        let t = Instant::now();
        dev.upload_matrix(&small.adj);
        dev.upload_matrix(&small.weights);
        let levels =
            bfs_levels(&dev, &small.adj, src, Direction::Auto).map_err(|e| e.to_string())?;
        dev.download_vector(&levels);
        let dist = sssp(&dev, &small.weights, src).map_err(|e| e.to_string())?;
        dev.download_vector(&dist);
        let opts = PageRankOptions {
            tolerance: 0.0,
            max_iters: 5,
            ..PageRankOptions::default()
        };
        let (ranks, _) = pagerank(&dev, &small.adj, opts).map_err(|e| e.to_string())?;
        dev.download_vector(&ranks);
        black_box(triangle_count(&dev, &small.adj).map_err(|e| e.to_string())?);
        let host_s = t.elapsed().as_secs_f64();
        let s = dev.gpu_stats();
        m.insert("gpu-sim.kernel_launches", s.kernels_launched as f64);
        m.insert("gpu-sim.mem_txns", s.mem_transactions as f64);
        m.insert("gpu-sim.h2d_bytes", s.bytes_h2d as f64);
        m.insert("gpu-sim.d2h_bytes", s.bytes_d2h as f64);
        let launch_s = s.kernels_launched as f64 * GpuConfig::k40().kernel_launch_us / 1e6;
        m.insert(
            "gpu-sim.launch_overhead_share",
            share(launch_s, s.modeled_time_s),
        );
        m.insert(
            "gpu-sim.host_per_model_ratio",
            share(host_s, s.modeled_time_s),
        );

        let gpu = Gpu::new(GpuConfig::k40());
        let mut rng = Rng::new(1, "probe-keys");
        let keys: Vec<u64> = (0..sz.keys)
            .map(|_| rng.next_u64() % (sz.keys as u64 / 4 + 1))
            .collect();
        let vals: Vec<u64> = (0..sz.keys as u64).collect();
        let mut sorted = (Vec::new(), Vec::new());
        m.insert(
            "gpu-sim.sort_pairs_host_ms",
            ms_p50(3, || {
                sorted = primitives::sort::sort_pairs(&gpu, &keys, &vals)
            }),
        );
        m.insert(
            "gpu-sim.scan_host_ms",
            ms_p50(3, || {
                drop(black_box(primitives::scan::exclusive_scan(
                    &gpu,
                    &vals,
                    0u64,
                    |a, b| a.wrapping_add(b),
                )))
            }),
        );
        m.insert(
            "gpu-sim.reduce_by_key_host_ms",
            ms_p50(3, || {
                drop(black_box(primitives::reduce::reduce_by_key(
                    &gpu,
                    &sorted.0,
                    &sorted.1,
                    |a, b| a.wrapping_add(b),
                )))
            }),
        );
    }

    // core: dispatch, policy, transpose cache; trace: the span it adds
    {
        let one = Matrix::build(1, 1, [(0usize, 0usize, true)], gbtl_algebra::Second::new())
            .map_err(|e| e.to_string())?;
        let mut u: Vector<bool> = Vector::new(1);
        u.set(0, true);
        let dispatch = |ctx: &Context<gbtl_core::SeqBackend>| {
            ns_per_call(TINY, || {
                let mut w: Vector<bool> = Vector::new(1);
                ctx.vxm(
                    &mut w,
                    None,
                    no_accum(),
                    LorLand::new(),
                    &u,
                    &one,
                    &Descriptor::new(),
                )
                .expect("vxm");
                black_box(w);
            })
        };
        let off = dispatch(&Context::sequential().with_trace_mode(TraceMode::Off));
        let summary = dispatch(&Context::sequential().with_trace_mode(TraceMode::Summary));
        m.insert("core.dispatch_ns", off);
        m.insert("trace.span_record_ns", (summary - off).max(0.0));

        let n = g.adj.nrows();
        let policy = DirectionPolicy::new(Direction::Auto, n, g.adj.nnz(), true);
        let mut k = 0usize;
        m.insert(
            "core.policy_decide_ns",
            ns_per_call(TINY, || {
                k = (k + 97) % n;
                black_box(policy.decide(k, n - k));
            }),
        );
        let cache = TransposeCache::with_capacity(8);
        let (id, version) = (g.adj.id(), g.adj.version());
        cache.get_or_build(id, version, || g.adj.csr().transpose());
        m.insert(
            "core.transpose_hit_ns",
            ns_per_call(TINY, || {
                black_box(cache.get_or_build(id, version, || g.adj.csr().transpose()));
            }),
        );
        m.insert(
            "core.transpose_miss_ms",
            ms_p50(reps, || {
                cache.clear();
                black_box(cache.get_or_build(id, version, || g.adj.csr().transpose()));
            }),
        );
    }

    // algorithms, on the sequential backend
    {
        seq.seed_symmetric_transpose(&g.weights);
        seq.seed_symmetric_transpose(&grid.adj);
        let src = g.giant[0];
        let opts = PageRankOptions {
            tolerance: 0.0,
            max_iters: crate::libwork::PAGERANK_ITERS,
            ..PageRankOptions::default()
        };
        let mut levels = 0u64;
        m.insert(
            "algorithms.bfs_ms_p50",
            ms_p50(reps, || {
                let l = bfs_levels(&seq, &g.adj, src, Direction::Auto).expect("bfs");
                levels = l.iter().map(|(_, v)| v).max().unwrap_or(0) + 1;
            }),
        );
        m.insert("algorithms.bfs_levels", levels as f64);
        m.insert(
            "algorithms.sssp_ms_p50",
            ms_p50(reps, || {
                drop(black_box(sssp(&seq, &g.weights, src).expect("sssp")))
            }),
        );
        m.insert(
            "algorithms.bfs_grid_ms_p50",
            ms_p50(reps, || {
                drop(black_box(
                    bfs_levels(&seq, &grid.adj, 0, Direction::Auto).expect("bfs"),
                ))
            }),
        );
        let mut iters = 0usize;
        m.insert(
            "algorithms.pagerank_ms_p50",
            ms_p50(reps, || {
                iters = pagerank(&seq, &g.adj, opts).expect("pagerank").1
            }),
        );
        m.insert("algorithms.pagerank_iters", iters as f64);
        m.insert(
            "algorithms.triangle_ms_p50",
            ms_p50(reps.min(3), || {
                black_box(triangle_count(&seq, &g.adj).expect("triangles"));
            }),
        );
        m.insert(
            "algorithms.cc_ms_p50",
            ms_p50(reps, || {
                drop(black_box(connected_components(&seq, &g.adj).expect("cc")))
            }),
        );
        m.insert(
            "algorithms.mis_ms_p50",
            ms_p50(reps, || {
                drop(black_box(
                    maximal_independent_set(&seq, &g.adj, 7).expect("mis"),
                ))
            }),
        );
        m.insert(
            "algorithms.pattern_matrix_ms",
            ms_p50(reps, || drop(black_box(pattern_matrix(&seq, &g.adj, 1u64)))),
        );

        // what share of a call is kernels: op wall from the context's own
        // trace over the call's wall (the rest is host epilogue and copies)
        let traced = Context::sequential().with_trace_mode(TraceMode::Summary);
        traced.seed_symmetric_transpose(&g.adj);
        traced.seed_symmetric_transpose(&g.weights);
        let t = Instant::now();
        black_box(sssp(&traced, &g.weights, src).expect("sssp"));
        let report = traced.trace();
        let products = |r: &gbtl_core::TraceReport| {
            ["mxv", "vxm"]
                .iter()
                .filter_map(|op| r.op(op))
                .map(|o| o.calls)
                .sum::<u64>()
        };
        m.insert("algorithms.sssp_rounds", products(&report) as f64);
        black_box(bfs_levels(&traced, &g.adj, src, Direction::Auto).expect("bfs"));
        black_box(pagerank(&traced, &g.adj, opts).expect("pagerank"));
        let wall_ns = t.elapsed().as_nanos() as f64;
        m.insert(
            "algorithms.kernel_share",
            share(traced.trace().total_ns() as f64, wall_ns),
        );

        seq.seed_symmetric_transpose(&small.adj);
        let sources: Vec<usize> = small.giant.iter().copied().take(32).collect();
        let solo = ms_p50(3, || {
            for &s in &sources {
                black_box(bfs_levels(&seq, &small.adj, s, Direction::Auto).expect("bfs"));
            }
        });
        let multi = ms_p50(3, || {
            black_box(bfs_levels_multi(&seq, &small.adj, &sources).expect("multi bfs"));
        });
        m.insert("algorithms.multi_bfs32_speedup", share(solo, multi));
    }

    // util, metrics, xray
    let query = "{\"op\":\"query\",\"graph\":\"rmat12\",\"algo\":\"bfs\",\"backend\":\"par\",\"source\":1234}";
    m.insert(
        "util.json_parse_ns",
        ns_per_call(TINY, || drop(black_box(gbtl_util::json::parse(query)))),
    );
    {
        let h = gbtl_metrics::Registry::new(true).histogram("probe", &[]);
        let mut v = 1u64;
        m.insert(
            "metrics.observe_ns",
            ns_per_call(TINY, || {
                v = v % 100_000 + 37;
                h.observe(v);
            }),
        );
        m.insert(
            "xray.unsampled_ns",
            ns_per_call(TINY, || {
                black_box(gbtl_xray::begin_request(query, "probe"));
            }),
        );
        let store = gbtl_xray::XrayStore::new(true, 1, 8);
        m.insert(
            "xray.span_ns",
            ns_per_call(TINY, || {
                let ctx = store.begin_root("probe");
                for _ in 0..8 {
                    store.add_span(ctx, "probe.span", 1, 2, &[]);
                }
                store.finish_root(ctx);
            }) / 10.0,
        );
    }

    // net: the framer alone, then ping round trips on both front-ends
    {
        let chunk: Vec<u8> = (0..64)
            .flat_map(|_| format!("{query}\n").into_bytes())
            .collect();
        let mut framer = gbtl_net::LineFramer::new(65_536);
        m.insert(
            "net.framer_ns_per_line",
            ns_per_call(TINY, || {
                framer.push(&chunk, |f| {
                    black_box(f);
                })
            }) / 64.0,
        );
    }
    let config = ServerConfig {
        workers: 1,
        par_threads: 1,
        preload: vec![("probe".into(), sz.small.spec())],
        ..ServerConfig::default()
    };
    let ping = "{\"op\":\"ping\"}".to_string();
    let pings = if smoke { 200 } else { 2000 };
    let rtt_us = |conn: &mut Conn| -> Result<f64, String> {
        let mut us = Vec::with_capacity(pings);
        for _ in 0..pings {
            let t = Instant::now();
            conn.request(&ping).map_err(|e| e.to_string())?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(percentile(&us, 50.0))
    };
    let stack = Stack::start(config.clone(), 0).map_err(|e| e.to_string())?;
    let on_stack = (|| -> Result<(), String> {
        let mut conn = Conn::connect(stack.addr()).map_err(|e| e.to_string())?;
        m.insert("net.evented_rtt_us_p50", rtt_us(&mut conn)?);
        let lines = vec![ping.clone()];
        let list = vec![vec![0usize; pings * 10]];
        let t = Instant::now();
        drive(
            std::slice::from_mut(&mut conn),
            &lines,
            &list,
            32,
            |_, _, _, _| {},
        )
        .map_err(|e| e.to_string())?;
        m.insert(
            "net.ping_pipelined_qps",
            (pings * 10) as f64 / t.elapsed().as_secs_f64(),
        );

        // serve: the pool answering inline, and the hand-off to a worker
        let pool = stack.pools[0].as_ref();
        m.insert(
            "serve.pool_inline_ns",
            ns_per_call(TINY, || drop(black_box(call(pool, &ping)))),
        );
        let entry = pool
            .graphs()
            .into_iter()
            .next()
            .ok_or("probe graph missing")?;
        let engine = QueryEngine::new(1);
        engine.prewarm(&entry);
        let ctx = Context::sequential().with_trace_mode(TraceMode::Summary);
        ctx.seed_symmetric_transpose(&entry.adj);
        // distinct sources, more than the cache holds: every submit executes
        let queries: Vec<String> = (0..160)
            .map(|i| {
                format!(
                    "{{\"op\":\"query\",\"graph\":\"probe\",\"algo\":\"bfs\",\"backend\":\"seq\",\
                     \"source\":{}}}",
                    small.giant[i % small.giant.len()]
                )
            })
            .collect();
        let params: Vec<_> = queries
            .iter()
            .map(|l| match parse_request(l) {
                Ok(Request::Query(q)) => Ok(q),
                other => Err(format!("probe query did not parse: {other:?}")),
            })
            .collect::<Result<_, _>>()?;
        let mut i = 0;
        let mut next = || {
            i = (i + 1) % params.len();
            i
        };
        let bare = ms_each(queries.len(), || {
            let q = &params[next()];
            black_box(bfs_levels(&ctx, &entry.adj, q.source, q.direction).expect("bfs"));
        });
        let run = ms_each(queries.len(), || {
            black_box(
                engine
                    .run(&entry, &params[next()], None, None)
                    .expect("run"),
            );
        });
        let submit = ms_each(queries.len(), || {
            drop(black_box(call(pool, &queries[next()])))
        });
        let (bare, run, submit) = (median(&bare), median(&run), median(&submit));
        m.insert("serve.engine_run_ms_p50", run);
        m.insert("serve.render_share", share((run - bare).max(0.0), run));
        m.insert("serve.pool_handoff_us_p50", (submit - run).max(0.0) * 1e3);
        Ok(())
    })();
    stack.stop();
    on_stack?;
    {
        // the same ping through the thread-per-connection front-end
        let pool = gbtl_serve::EnginePool::new(config.clone()).map_err(|e| e.to_string())?;
        let workers = pool.spawn_workers();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let thread = gbtl_serve::serve_threaded(listener, pool.clone(), config.max_line, None);
        let rtt = Conn::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| rtt_us(&mut c));
        gbtl_net::Engine::drain(pool.as_ref());
        // the listener only notices the drain on its next accept
        drop(std::net::TcpStream::connect(addr));
        let _ = thread.join();
        for w in workers {
            let _ = w.join();
        }
        m.insert("net.threaded_rtt_us_p50", rtt?);
    }

    // fuse: the window queue alone, then what the window costs a lone query
    {
        let q = gbtl_fuse::FuseQueue::new(Duration::from_micros(1), 2);
        m.insert(
            "fuse.push_pop_ns",
            ns_per_call(TINY, || {
                black_box(q.push("k", 1u32));
                black_box(q.push("k", 2u32)); // completes the group: handed back
            }) / 2.0,
        );
        let lone = |fuse: bool| -> Result<f64, String> {
            let mut c = config.clone();
            c.cache_capacity = 0;
            c.fuse.enabled = fuse;
            let stack = Stack::start(c, 0).map_err(|e| e.to_string())?;
            let line = format!(
                "{{\"op\":\"query\",\"graph\":\"probe\",\"algo\":\"bfs\",\"backend\":\"seq\",\
                 \"source\":{}}}",
                small.giant[0]
            );
            let us = ms_each(if smoke { 10 } else { 60 }, || {
                black_box(call(stack.front(), &line));
            });
            stack.stop();
            Ok(median(&us) * 1e3)
        };
        m.insert("fuse.solo_delay_us", (lone(true)? - lone(false)?).max(0.0));
    }

    // serve: grammar, cache, catalog, snapshots
    m.insert(
        "serve.parse_request_ns",
        ns_per_call(TINY, || drop(black_box(parse_request(query)))),
    );
    {
        let cache = ResultCache::new(128);
        let keys: Vec<String> = (0..512)
            .map(|i| cache_key("g", 1, &format!("source={i}")))
            .collect();
        let result = || CachedResult {
            result_json: "{\"reached\":1,\"max_level\":0,\"checksum\":\"0\"}".into(),
            compute_micros: 1,
        };
        for k in &keys[..128] {
            cache.put(k.clone(), result());
        }
        let mut i = 0;
        m.insert(
            "serve.cache_get_hit_ns",
            ns_per_call(TINY, || {
                i = (i + 1) % 128;
                black_box(cache.get(&keys[i]));
            }),
        );
        // a full cache: every put of a new key scans for the LRU victim
        m.insert(
            "serve.cache_put_ns",
            ns_per_call(TINY, || {
                i = (i + 1) % keys.len();
                cache.put(keys[i].clone(), result());
            }),
        );
    }
    {
        let spec = GraphSpec::parse(&crate::RELOAD_GRAPH.spec())?;
        let spec = if smoke { GraphSpec::Karate } else { spec };
        let catalog = Catalog::new();
        let mut loaded = None;
        m.insert(
            "serve.catalog_load_ms",
            ms_p50(3, || {
                loaded = Some(catalog.load("probe", &spec).expect("load"))
            }),
        );
        let entry = loaded.expect("loaded at least once");
        let dir = out.join(format!("probe-snap-{}", std::process::id()));
        let mut path = None;
        let write = ms_p50(3, || {
            path = Some(
                gbtl_serve::snapshot::write_snapshot(&dir, &entry)
                    .expect("snapshot")
                    .0,
            )
        });
        let path = path.expect("written at least once");
        let read = ms_p50(3, || {
            drop(black_box(
                gbtl_serve::snapshot::read_snapshot(&path).expect("read"),
            ))
        });
        let _ = std::fs::remove_dir_all(&dir);
        m.insert("serve.snapshot_write_ms", write);
        m.insert("serve.snapshot_read_ms", read);
    }

    // shard: placement alone, then the router's hop over its pool
    {
        let placement = gbtl_shard::Placement::new(2, Default::default())?;
        let names: Vec<String> = (0..64).map(|i| format!("graph-{i}")).collect();
        let mut i = 0;
        m.insert(
            "shard.placement_ns",
            ns_per_call(TINY, || {
                i = (i + 1) % names.len();
                black_box(placement.shard_for(&names[i]));
            }),
        );
        let stack = Stack::start(config, 2).map_err(|e| e.to_string())?;
        let router = stack.router.as_ref().expect("sharded").clone();
        // a cached answer on both paths: the hop is all that differs
        let line = "{\"op\":\"query\",\"graph\":\"probe\",\"algo\":\"cc\",\"backend\":\"seq\"}";
        call(router.as_ref(), line);
        let owner = stack.owner("probe").clone();
        let via_pool = ns_per_call(TINY, || drop(black_box(call(owner.as_ref(), line))));
        let via_router = ns_per_call(TINY, || drop(black_box(call(router.as_ref(), line))));
        stack.stop();
        m.insert(
            "shard.forward_overhead_us_p50",
            (via_router - via_pool).max(0.0) / 1e3,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_sums_numeric_leaves_by_path() {
        let v = gbtl_util::json::parse(r#"{"a":{"b":2,"c":"x"},"d":1.5,"e":[1]}"#).unwrap();
        let mut out = BTreeMap::new();
        flatten(&v, "", &mut out);
        flatten(&v, "", &mut out);
        assert_eq!(out.get("a.b"), Some(&4.0));
        assert_eq!(out.get("d"), Some(&3.0));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn stage_median_merges_label_sets() {
        let doc = gbtl_util::json::parse(
            r#"[{"name":"gbtl_stage_latency_us","labels":{"algo":"bfs","stage":"queue"},"buckets":[{"le":8,"count":3},{"le":64,"count":1}]},
                {"name":"gbtl_stage_latency_us","labels":{"algo":"cc","stage":"queue"},"buckets":[{"le":64,"count":4}]},
                {"name":"gbtl_stage_latency_us","labels":{"algo":"cc","stage":"execute"},"buckets":[{"le":512,"count":9}]}]"#,
        )
        .unwrap();
        let hs = doc.as_arr().unwrap();
        assert_eq!(stage_p50(hs, "queue"), 64.0);
        assert_eq!(stage_p50(hs, "execute"), 512.0);
        assert_eq!(stage_p50(hs, "serialize"), 0.0);
    }

    #[test]
    fn the_probes_fill_every_metric_that_is_not_a_workload_counter() {
        let out = crate::out_dir();
        let mut m = Metrics::new();
        probes(true, &out, &mut m).unwrap();
        library_zeros(&mut m);
        crate::ladder::library(&mut m);
        from_process(&[], Default::default(), &mut m);
        for name in [
            "core.transpose_hit_share",
            "client.cpu_share",
            "client.host_spin_drift",
            "client.ladder_residual_share",
        ] {
            m.insert(name, 0.0); // supplied by the runner
        }
        for d in crate::catalogue::PER_LAYER {
            let v = m
                .get(d.name)
                .unwrap_or_else(|| panic!("{} missing", d.name));
            assert!(v.is_finite(), "{} = {v}", d.name);
        }
        assert_eq!(
            m.len(),
            crate::catalogue::PER_LAYER.len(),
            "undeclared metric"
        );
        // exact counts of the fixed device suite repeat exactly
        let mut again = Metrics::new();
        probes(true, &out, &mut again).unwrap();
        for name in [
            "gpu-sim.kernel_launches",
            "gpu-sim.mem_txns",
            "gpu-sim.h2d_bytes",
            "gpu-sim.d2h_bytes",
            "algorithms.bfs_levels",
            "algorithms.sssp_rounds",
            "algorithms.pagerank_iters",
        ] {
            assert_eq!(m[name], again[name], "{name}");
            assert!(m[name] > 0.0, "{name}");
        }
    }
}
