//! The paper-style experiment harness: prints one table/series per
//! reconstructed wall-clock experiment (see DESIGN.md / EXPERIMENTS.md).
//! The shapes the modeled clock alone decides are `tests/paper_shapes.rs`.
//!
//! ```text
//! cargo run -p gbtl-bench --release --bin experiments            # all
//! cargo run -p gbtl-bench --release --bin experiments -- t1 f1  # subset
//! cargo run -p gbtl-bench --release --bin experiments -- --trace f1
//! ```

use std::hint::black_box;
use std::time::Duration;

use gbtl_algebra::{AdditiveInverse, Plus, PlusMonoid, PlusTimes, Times, TriL};
use gbtl_algorithms::{
    bfs_levels, pagerank::PageRankOptions, sssp, sssp_with_direction, triangle_count, Direction,
};
use gbtl_bench::{
    cuda_ctx, er_graph, grid_graph, host_threads, par_ctx, print_header, print_row, print_title,
    rmat_graph, seq_ctx, time_best, time_cuda, typed, weighted, Row,
};
use gbtl_core::trace::report::format_table;
use gbtl_core::{
    no_accum, Backend, Context, Descriptor, Matrix, ParBackend, SeqBackend, TraceMode, Vector,
};
use gbtl_sparse::{CooMatrix, CsrMatrix, DenseVector, SparseVector, VecMask};

/// The studies by key, in the order `all` runs them.
const STUDIES: [(&str, fn()); 7] = [
    ("t1", t1_primitives),
    ("f1", f1_bfs),
    ("f2", f2_sssp),
    ("f3", f3_pr_tc),
    ("f4", f4_mxm_sweep),
    ("p1", p1_par_kernels),
    ("d10", d10_direction),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--trace` turns op tracing on for every context the experiments
    // create (they all read `GBTL_TRACE` at construction) and appends a
    // three-backend traced report after the selected experiments finish.
    let traced = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.remove(i))
        .is_some();
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "all" && !STUDIES.iter().any(|(key, _)| key == a))
    {
        let keys: Vec<&str> = STUDIES.iter().map(|(key, _)| *key).collect();
        eprintln!(
            "experiments: unknown key {bad:?}; keys: all {}",
            keys.join(" ")
        );
        std::process::exit(2);
    }
    if traced {
        std::env::set_var("GBTL_TRACE", "summary");
        println!("op tracing: on (GBTL_TRACE=summary)");
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");

    println!("GBTL-RS reconstructed evaluation (see EXPERIMENTS.md)");
    println!("device model: Tesla K40-class (15 SMs, 288 GB/s, PCIe 12 GB/s)");
    for (key, study) in STUDIES {
        if all || args.iter().any(|a| a == key) {
            study();
        }
    }

    if traced {
        println!("\n== traced appendix: BFS + triangles (rmat12), per-op report per backend");
        let a = rmat_graph(12, 16, 7);
        report_for(&a, seq_ctx());
        report_for(&a, par_ctx(host_threads()));
        report_for(&a, cuda_ctx());
    }
}

fn report_for<B: Backend>(a: &Matrix<bool>, ctx: Context<B>) {
    let ctx = ctx.with_trace_mode(TraceMode::Summary);
    let _ = bfs_levels(&ctx, a, 0, Direction::Push).unwrap();
    let _ = triangle_count(&ctx, a).unwrap();
    println!("{}", format_table(&ctx.trace()));
}

/// R-P26: every kernel `ParBackend` overrides or once did, par(2) ÷ seq, called
/// through the `Backend` trait on perfbench's two largest library graphs.
/// Run unpinned. Each round times both backends once, alternating which
/// goes first; a round's speedup is seq time ÷ par time, and the table
/// prints the median over the rounds plus how many rounds par won. An op
/// whose par call dispatches nothing on the pool runs seq's body.
fn p1_par_kernels() {
    const ROUNDS: usize = 41;
    const KERNELS: [&str; 16] = [
        "mxm",
        "mxm_masked",
        "mxv",
        "reduce_rows",
        "ewise_mult_mat",
        "select_mat",
        "transpose",
        "apply_mat",
        "apply_sparse_vec",
        "apply_dense_vec",
        "ewise_add_mat",
        "ewise_add_vec",
        "ewise_mult_vec",
        "reduce_mat",
        "reduce_dense_vec",
        "reduce_sparse_vec",
    ];
    print_title(
        "R-P26: parallel CPU backend, per kernel, par(2) / seq",
        "an override stays only where the median clears 1.1x in 2 of 3 campaigns \
         on both graphs; `fans out` = no marks an op that runs seq's body",
    );
    println!(
        "host parallelism: {} core(s); {ROUNDS} alternated rounds",
        host_threads()
    );
    let (seq, par) = (SeqBackend, ParBackend::with_threads(2));
    for (label, a) in [
        ("rmat14 ef16", rmat_graph(14, 16, 1)),
        ("rmat13 ef8", rmat_graph(13, 8, 1)),
    ] {
        let x = P1Operands::new(&a);
        // a second of fanned-out work first, so the helper has left the
        // caller's CPU before anything is timed (EXPERIMENTS.md R-P20)
        let warm = std::time::Instant::now();
        while warm.elapsed() < Duration::from_secs(1) {
            p1_call(&par, "mxv", &x);
        }
        println!("\n{label}: n={} nnz={}", a.nrows(), a.nnz());
        println!(
            "{:<18} {:>10} {:>10} {:>9} {:>10} {:>9}",
            "kernel", "seq", "par(2)", "median", "par wins", "fans out"
        );
        for kernel in KERNELS {
            let before = par.pool_stats().parallel_dispatches;
            p1_call(&par, kernel, &x);
            let fans_out = par.pool_stats().parallel_dispatches > before;
            // enough calls per sample that one sample is at least 1 ms
            let once = time_best(1, || p1_call(&seq, kernel, &x));
            let reps = (1e-3 / once.as_secs_f64().max(1e-9)).ceil().clamp(1.0, 1e4) as usize;
            let sample = |be: &dyn Fn()| {
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    be();
                }
                t0.elapsed().as_secs_f64() / reps as f64
            };
            let (run_seq, run_par) = (|| p1_call(&seq, kernel, &x), || p1_call(&par, kernel, &x));
            let rounds: Vec<(f64, f64)> = (0..ROUNDS)
                .map(|r| {
                    if r % 2 == 0 {
                        let s = sample(&run_seq);
                        (s, sample(&run_par))
                    } else {
                        let p = sample(&run_par);
                        (sample(&run_seq), p)
                    }
                })
                .collect();
            let median = |f: fn(&(f64, f64)) -> f64| {
                let mut v: Vec<f64> = rounds.iter().map(f).collect();
                v.sort_by(f64::total_cmp);
                v[v.len() / 2]
            };
            println!(
                "{:<18} {:>8.1}us {:>8.1}us {:>8.2}x {:>6}/{ROUNDS} {:>9}",
                kernel,
                median(|r| r.0) * 1e6,
                median(|r| r.1) * 1e6,
                median(|r| r.0 / r.1),
                rounds.iter().filter(|(s, p)| p < s).count(),
                if fans_out { "yes" } else { "no" }
            );
        }
    }
}

/// R-P26's operands on one graph: the adjacency as `f64`; an `n × 16`
/// frontier, one entry a row (the fused 16-source traversal's pull-level
/// product `A·F`); the lower triangle and its pattern as the mask (the
/// triangle-count product `L·L<L>`); dense and sparse vectors.
struct P1Operands {
    a: CsrMatrix<f64>,
    f: CsrMatrix<f64>,
    l: CsrMatrix<f64>,
    mask: CsrMatrix<bool>,
    ud: DenseVector<f64>,
    vd: DenseVector<f64>,
    us: SparseVector<f64>,
    vs: SparseVector<f64>,
}

impl P1Operands {
    fn new(g: &Matrix<bool>) -> Self {
        let n = g.nrows();
        let a = typed(g, 1.0f64).csr().clone();
        let (mut ud, mut vd) = (DenseVector::new(n), DenseVector::new(n));
        let (mut us, mut vs) = (SparseVector::new(n), SparseVector::new(n));
        let mut f = CooMatrix::new(n, 16);
        for i in 0..n {
            f.push(i, i % 16, 1.0);
            let v = i as f64 / 7.0;
            ud.set(i, v);
            if i % 2 == 0 {
                vd.set(i, v);
                us.set(i, v);
            }
            if i % 3 == 0 {
                vs.set(i, v);
            }
        }
        P1Operands {
            f: CsrMatrix::from_coo(f, |x, _| x),
            l: SeqBackend.select_mat(&a, TriL),
            mask: SeqBackend.select_mat(g.csr(), TriL),
            a,
            ud,
            vd,
            us,
            vs,
        }
    }
}

/// One call of `kernel` on `be`, its result dropped.
fn p1_call<B: Backend>(be: &B, kernel: &str, x: &P1Operands) {
    let sr = PlusTimes::<f64>::new();
    let m = PlusMonoid::<f64>::new();
    let neg = AdditiveInverse::<f64>::new();
    match kernel {
        "mxm" => drop(black_box(be.mxm(&x.a, &x.f, sr))),
        "mxm_masked" => drop(black_box(be.mxm_masked(&x.mask, &x.l, &x.l, sr))),
        "mxv" => drop(black_box(be.mxv(&x.a, &x.ud, sr, None::<VecMask<'_>>))),
        "reduce_rows" => drop(black_box(be.reduce_rows(&x.a, m))),
        "ewise_mult_mat" => drop(black_box(be.ewise_mult_mat(&x.a, &x.l, Times::new()))),
        "select_mat" => drop(black_box(be.select_mat(&x.a, TriL))),
        "transpose" => drop(black_box(be.transpose(&x.l))),
        "apply_mat" => drop(black_box(be.apply_mat(&x.a, neg))),
        "apply_sparse_vec" => drop(black_box(be.apply_sparse_vec(&x.us, neg))),
        "apply_dense_vec" => drop(black_box(be.apply_dense_vec(&x.ud, neg))),
        "ewise_add_mat" => drop(black_box(be.ewise_add_mat(&x.a, &x.l, Plus::new()))),
        "ewise_add_vec" => drop(black_box(be.ewise_add_vec(&x.us, &x.vs, Plus::new()))),
        "ewise_mult_vec" => drop(black_box(be.ewise_mult_vec(&x.ud, &x.vd, Times::new()))),
        "reduce_mat" => drop(black_box(be.reduce_mat(&x.a, m))),
        "reduce_dense_vec" => drop(black_box(be.reduce_dense_vec(&x.ud, m))),
        "reduce_sparse_vec" => drop(black_box(be.reduce_sparse_vec(&x.us, m))),
        other => unreachable!("no kernel {other}"),
    }
}

/// R-T1: primitive-operation timings, sequential vs simulated CUDA.
fn t1_primitives() {
    print_header(
        "R-T1: GraphBLAS primitive timings (RMAT ef=16)",
        "device wins the bandwidth-shaped ops (mxv, reduce, transpose, ewise) at scale; \
         mxm is closer (ESC pays sort traffic vs Gustavson)",
    );
    for scale in [12u32, 14] {
        let a = rmat_graph(scale, 16, 42);
        let af = typed(&a, 1.0f64);
        let u = Vector::filled(a.ncols(), 1.0f64);

        // mxv
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            let mut w = Vector::new(af.nrows());
            ctx.mxv(
                &mut w,
                None,
                no_accum(),
                PlusTimes::new(),
                &af,
                &u,
                &Descriptor::new(),
            )
            .unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let mut w = Vector::new(af.nrows());
            ctx.mxv(
                &mut w,
                None,
                no_accum(),
                PlusTimes::new(),
                &af,
                &u,
                &Descriptor::new(),
            )
            .unwrap();
        });
        print_row(&row(format!("rmat{scale} mxv"), &a, seq, wall, model));

        // eWiseAdd (A + A)
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            let mut c = Matrix::new(af.nrows(), af.ncols());
            ctx.ewise_add_mat(
                &mut c,
                None,
                no_accum(),
                gbtl_algebra::Plus::new(),
                &af,
                &af,
                &Descriptor::new(),
            )
            .unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let mut c = Matrix::new(af.nrows(), af.ncols());
            ctx.ewise_add_mat(
                &mut c,
                None,
                no_accum(),
                gbtl_algebra::Plus::new(),
                &af,
                &af,
                &Descriptor::new(),
            )
            .unwrap();
        });
        print_row(&row(format!("rmat{scale} ewise_add"), &a, seq, wall, model));

        // reduce
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            std::hint::black_box(ctx.reduce_mat_scalar(PlusMonoid::<f64>::new(), &af));
        });
        let (wall, model) = time_cuda(|ctx| {
            std::hint::black_box(ctx.reduce_mat_scalar(PlusMonoid::<f64>::new(), &af));
        });
        print_row(&row(format!("rmat{scale} reduce"), &a, seq, wall, model));

        // transpose
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            let mut c = Matrix::new(af.ncols(), af.nrows());
            ctx.transpose(&mut c, None, no_accum(), &af, &Descriptor::new())
                .unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let mut c = Matrix::new(af.ncols(), af.nrows());
            ctx.transpose(&mut c, None, no_accum(), &af, &Descriptor::new())
                .unwrap();
        });
        print_row(&row(format!("rmat{scale} transpose"), &a, seq, wall, model));

        // apply
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            std::hint::black_box(
                ctx.apply_mat_new(gbtl_algebra::AdditiveInverse::<f64>::new(), &af),
            );
        });
        let (wall, model) = time_cuda(|ctx| {
            std::hint::black_box(
                ctx.apply_mat_new(gbtl_algebra::AdditiveInverse::<f64>::new(), &af),
            );
        });
        print_row(&row(format!("rmat{scale} apply"), &a, seq, wall, model));

        // mxm (smaller scale only; Gustavson flops grow fast on RMAT)
        if scale <= 12 {
            let seq = time_best(1, || {
                let ctx = seq_ctx();
                let mut c = Matrix::new(af.nrows(), af.ncols());
                ctx.mxm(
                    &mut c,
                    None,
                    no_accum(),
                    PlusTimes::new(),
                    &af,
                    &af,
                    &Descriptor::new(),
                )
                .unwrap();
            });
            let (wall, model) = time_cuda(|ctx| {
                let mut c = Matrix::new(af.nrows(), af.ncols());
                ctx.mxm(
                    &mut c,
                    None,
                    no_accum(),
                    PlusTimes::new(),
                    &af,
                    &af,
                    &Descriptor::new(),
                )
                .unwrap();
            });
            print_row(&row(format!("rmat{scale} mxm"), &a, seq, wall, model));
        }
    }
}

/// R-F1: BFS across scales (+ a grid), both backends.
fn f1_bfs() {
    print_header(
        "R-F1: BFS time vs graph scale",
        "device speedup grows with scale on RMAT (big frontiers); launch overhead \
         dominates on small graphs and on the high-diameter grid (many tiny kernels) — \
         crossover in between",
    );
    for scale in [10u32, 12, 14, 16] {
        let a = rmat_graph(scale, 16, 7);
        let seq = time_best(2, || {
            let _ = bfs_levels(&seq_ctx(), &a, 0, Direction::Push).unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let _ = bfs_levels(ctx, &a, 0, Direction::Push).unwrap();
        });
        print_row(&row(format!("rmat{scale} bfs"), &a, seq, wall, model));
    }
    for side in [64usize, 128] {
        let a = grid_graph(side);
        let seq = time_best(2, || {
            let _ = bfs_levels(&seq_ctx(), &a, 0, Direction::Push).unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let _ = bfs_levels(ctx, &a, 0, Direction::Push).unwrap();
        });
        print_row(&row(format!("grid{side}x{side} bfs"), &a, seq, wall, model));
    }
}

/// R-F2: SSSP (Bellman–Ford) across scales.
fn f2_sssp() {
    print_header(
        "R-F2: SSSP (delta Bellman-Ford, min-plus) vs scale",
        "same shape as BFS but more rounds and real weight traffic; grid is the \
         worst case for the device (thousands of tiny kernels)",
    );
    for scale in [10u32, 12, 14] {
        let a = weighted(&rmat_graph(scale, 16, 7), 13);
        let seq = time_best(2, || {
            let _ = sssp(&seq_ctx(), &a, 0).unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let _ = sssp(ctx, &a, 0).unwrap();
        });
        let label = format!("rmat{scale} sssp");
        print_row(&Row {
            label,
            n: a.nrows(),
            nnz: a.nnz(),
            seq,
            cuda_wall: wall,
            cuda_modeled: model,
        });
    }
    let a = weighted(&grid_graph(64), 13);
    let seq = time_best(2, || {
        let _ = sssp(&seq_ctx(), &a, 0).unwrap();
    });
    let (wall, model) = time_cuda(|ctx| {
        let _ = sssp(ctx, &a, 0).unwrap();
    });
    print_row(&Row {
        label: "grid64x64 sssp".into(),
        n: a.nrows(),
        nnz: a.nnz(),
        seq,
        cuda_wall: wall,
        cuda_modeled: model,
    });
}

/// Multiply-adds of the triangle count written as `C<L> = L·L` (`Σ up·down`),
/// `C<L> = L·Lᵀ` (`Σ up²`) and `C<U> = U·Uᵀ` (`Σ down²`), with `down(k)` /
/// `up(k)` the neighbours of `k` below / above it.
fn triangle_flops(a: &Matrix<bool>) -> [u64; 3] {
    let mut flops = [0u64; 3];
    for k in 0..a.nrows() {
        let cols = a.csr().row(k).0;
        let down = cols.partition_point(|&j| j < k) as u64;
        let up = cols.len() as u64 - down; // generated graphs: no self-loops
        flops[0] += up * down;
        flops[1] += up * up;
        flops[2] += down * down;
    }
    flops
}

/// R-F3: PageRank and triangle counting.
fn f3_pr_tc() {
    print_header(
        "R-F3: PageRank (20 iters) and triangle counting",
        "PageRank: dense mxv iterations, device wins at scale. Triangles: the \
         masked product L·L (printed: its multiply-adds beside the rejected L·Lᵀ \
         and U·Uᵀ); RMAT's wedge explosion makes it far heavier than the ER \
         graph of equal size on both backends",
    );
    let opts = PageRankOptions {
        damping: 0.85,
        tolerance: 0.0, // fixed 20 iterations for comparable work
        max_iters: 20,
    };
    for scale in [10u32, 12, 14] {
        let a = rmat_graph(scale, 16, 7);
        let seq = time_best(1, || {
            let _ = gbtl_algorithms::pagerank(&seq_ctx(), &a, opts).unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let _ = gbtl_algorithms::pagerank(ctx, &a, opts).unwrap();
        });
        print_row(&row(format!("rmat{scale} pagerank"), &a, seq, wall, model));
    }
    for scale in [10u32, 12] {
        for (family, a) in [
            ("rmat", rmat_graph(scale, 16, 7)),
            ("er", er_graph(scale, 16, 7)),
        ] {
            let seq = time_best(1, || {
                let _ = triangle_count(&seq_ctx(), &a).unwrap();
            });
            let (wall, model) = time_cuda(|ctx| {
                let _ = triangle_count(ctx, &a).unwrap();
            });
            print_row(&row(
                format!("{family}{scale} triangles"),
                &a,
                seq,
                wall,
                model,
            ));
            let [ll, llt, uut] = triangle_flops(&a);
            println!("    multiply-adds: L·L={ll} (run)  L·Lᵀ={llt}  U·Uᵀ={uut}");
        }
    }
}

/// R-F4: SpGEMM sparsity sweep — ESC vs Gustavson as density grows.
fn f4_mxm_sweep() {
    print_header(
        "R-F4: mxm (C = A*A) on ER n=4096, average degree sweep",
        "both costs scale with flops (= candidate volume ~ n*deg^2); the modeled \
         device speedup rises with density and saturates at the bandwidth-bound \
         ceiling once ESC's sort traffic dominates both sides",
    );
    for deg in [2usize, 4, 8, 16, 32] {
        let a = er_graph(12, deg, 11);
        let af = typed(&a, 1.0f64);
        let seq = time_best(1, || {
            let ctx = seq_ctx();
            let mut c = Matrix::new(af.nrows(), af.ncols());
            ctx.mxm(
                &mut c,
                None,
                no_accum(),
                PlusTimes::new(),
                &af,
                &af,
                &Descriptor::new(),
            )
            .unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let mut c = Matrix::new(af.nrows(), af.ncols());
            ctx.mxm(
                &mut c,
                None,
                no_accum(),
                PlusTimes::new(),
                &af,
                &af,
                &Descriptor::new(),
            )
            .unwrap();
        });
        print_row(&row(format!("er deg={deg} mxm"), &a, seq, wall, model));
    }
}

/// R-D10: adaptive push/pull direction optimization — the per-iteration
/// decision records on rmat14 (the push→pull→push crossover the edge-cost
/// rule takes by itself), whole-traversal time of auto against both forced
/// modes — and against the **best** of them — for BFS and SSSP on all
/// three backends, and bit-identity of the three modes' results
/// (EXPERIMENTS.md).
fn d10_direction() {
    print_title(
        "R-D10: adaptive push/pull direction (edge-cost rule, dual frontiers)",
        "auto pushes a sparse frontier, pulls the level whose frontier carries \
         more edges than the unvisited rows hold (bitmap frontier against the \
         cached Aᵀ), never pulls SSSP's unmasked rounds on the CPU backends, \
         and is no slower than the best forced mode; results bit-identical",
    );
    let a = rmat_graph(14, 16, 7);
    let w = weighted(&a, 13);
    let n = a.nrows();
    println!("graph rmat14: {n} vertices, {} edges", a.nnz());

    // Per-iteration trace: one context with op tracing on and Aᵀ prewarmed
    // (so the pull gate is open), then a single auto BFS — the level spans
    // are the decision records: what each level chose and from what.
    let ctx = par_ctx(host_threads()).with_trace_mode(TraceMode::Summary);
    ctx.prewarm_transpose(&a);
    let _ = bfs_levels(&ctx, &a, 0, Direction::Auto).unwrap();
    println!("\nper-iteration decisions (par backend, auto):");
    println!(
        "{:<8} {:>14} {:>12} {:>12} {:>6} {:>8} {:>12}",
        "level", "frontier_nnz", "push_edges", "pull_edges", "dir", "rep", "time"
    );
    let mut dirs: Vec<String> = Vec::new();
    for span in ctx.trace().spans.iter().filter(|s| s.fields.op == "level") {
        // "bfs dir=push rep=sparse push_edges=.. pull_edges=.. pull_ready=.."
        let field = |key: &str| -> &str {
            let rest = span.fields.op_label.split(key).nth(1).unwrap_or("?");
            rest.split(' ').next().unwrap_or("?")
        };
        dirs.push(field("dir=").to_string());
        println!(
            "{:<8} {:>14} {:>12} {:>12} {:>6} {:>8} {:>9.1} us",
            span.fields.dims.trim_start_matches("level="),
            span.fields.nnz_in,
            field("push_edges="),
            field("pull_edges="),
            field("dir="),
            field("rep="),
            span.duration_ns as f64 / 1000.0
        );
    }
    let crossover = dirs.iter().any(|d| d == "push") && dirs.iter().any(|d| d == "pull");
    println!(
        "crossover taken automatically: {}",
        if crossover {
            "yes (both push and pull levels present)"
        } else {
            "NO — trace never switched direction"
        }
    );

    // Whole-traversal comparison. One context per backend, Aᵀ prewarmed
    // once, so every mode sees the same warm cache; cuda reports the
    // cost-model's device time (wall time measures the simulator).
    let report = |label: &str, push: Duration, pull: Duration, auto: Duration| {
        let secs = |d: Duration| d.as_secs_f64().max(1e-12);
        println!(
            "{label:<10} {push:>12.3?} {pull:>12.3?} {auto:>12.3?} {:>13.2}x {:>12.2}x",
            secs(push.max(pull)) / secs(auto),
            secs(push.min(pull)) / secs(auto),
        );
    };
    fn modes(mut run: impl FnMut(Direction) -> Duration) -> (Duration, Duration, Duration) {
        (
            run(Direction::Push),
            run(Direction::Pull),
            run(Direction::Auto),
        )
    }
    fn wall<B: Backend>(
        ctx: &Context<B>,
        a: &Matrix<bool>,
        w: &Matrix<u32>,
    ) -> [(Duration, Duration, Duration); 2] {
        ctx.prewarm_transpose(a);
        ctx.prewarm_transpose(w);
        [
            modes(|d| {
                time_best(5, || {
                    let _ = bfs_levels(ctx, a, 0, d).unwrap();
                })
            }),
            modes(|d| {
                time_best(5, || {
                    let _ = sssp_with_direction(ctx, w, 0, d).unwrap();
                })
            }),
        ]
    }
    let cuda = cuda_ctx();
    cuda.prewarm_transpose(&a);
    cuda.prewarm_transpose(&w);
    let modeled = |run: &dyn Fn()| {
        let t0 = cuda.gpu_stats().modeled_time_s;
        run();
        Duration::from_secs_f64(cuda.gpu_stats().modeled_time_s - t0)
    };
    let cuda_times = [
        modes(|d| {
            modeled(&|| {
                let _ = bfs_levels(&cuda, &a, 0, d).unwrap();
            })
        }),
        modes(|d| {
            modeled(&|| {
                let _ = sssp_with_direction(&cuda, &w, 0, d).unwrap();
            })
        }),
    ];
    let seq_times = wall(&seq_ctx(), &a, &w);
    let par_times = wall(&par_ctx(host_threads()), &a, &w);
    for (k, algo) in ["BFS", "SSSP"].iter().enumerate() {
        println!("\nwhole-traversal {algo}, auto vs forced (best of 5; cuda = modeled):");
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>14} {:>13}",
            "backend", "push", "pull", "auto", "worse / auto", "best / auto"
        );
        for (label, t) in [
            ("seq", seq_times[k]),
            ("par", par_times[k]),
            ("cuda", cuda_times[k]),
        ] {
            report(label, t.0, t.1, t.2);
        }
    }
    println!(
        "gate: best / auto >= 0.9 on seq and par for both algorithms \
         (cuda-sim's modeled clock charges each pushed level the cheaper direction, ADR 0012)"
    );

    // Bit-identity: the direction is a schedule, never a semantic — the
    // three modes must produce the same level vector on every backend.
    fn identical<B: Backend>(label: &str, a: &Matrix<bool>, ctx: Context<B>) {
        ctx.prewarm_transpose(a);
        let auto = bfs_levels(&ctx, a, 0, Direction::Auto).unwrap();
        let push = bfs_levels(&ctx, a, 0, Direction::Push).unwrap();
        let pull = bfs_levels(&ctx, a, 0, Direction::Pull).unwrap();
        assert_eq!(auto, push, "{label}: auto differs from forced push");
        assert_eq!(auto, pull, "{label}: auto differs from forced pull");
        println!("  {label}: auto == push == pull");
    }
    println!("\nbit-identity of level vectors across modes:");
    identical("seq", &a, seq_ctx());
    identical("par", &a, par_ctx(host_threads()));
    identical("cuda", &a, cuda_ctx());
}

fn row(label: String, a: &Matrix<bool>, seq: Duration, wall: Duration, model: Duration) -> Row {
    Row {
        label,
        n: a.nrows(),
        nnz: a.nnz(),
        seq,
        cuda_wall: wall,
        cuda_modeled: model,
    }
}
