//! gbtl-trace integration: every dispatched op shows up in the report on
//! all three backends, JSON output parses back, off records nothing but
//! still counts what it dispatched, and tracing never perturbs numerical
//! results.

use gbtl::algebra::{AdditiveInverse, Identity, Plus, PlusMonoid, PlusTimes, Times, TriL, ValueGt};
use gbtl::algorithms::{
    bfs_levels, connected_components, pagerank::PageRankOptions, triangle_count,
};
use gbtl::core::no_accum;
use gbtl::graphgen::karate_club;
use gbtl::prelude::*;
use gbtl::trace::{json, report};

/// Every op name the Context dispatch layer records.
const ALL_OPS: &[&str] = &[
    "build",
    "mxm",
    "mxv",
    "vxm",
    "ewise_add_mat",
    "ewise_mult_mat",
    "ewise_add_vec",
    "ewise_mult_vec",
    "apply_mat",
    "apply_vec",
    "reduce_mat",
    "reduce_vec",
    "reduce_rows",
    "transpose",
    "select_mat",
    "select_vec",
    "kronecker",
    "extract_mat",
    "extract_vec",
    "assign_mat",
    "assign_vec",
];

/// Dispatch at least one call of every traced op through the context.
fn exercise_all_ops<B: Backend>(ctx: &Context<B>) {
    let desc = Descriptor::new();

    let mut coo = gbtl::sparse::CooMatrix::new(4, 4);
    for (r, c, v) in [(0, 1, 1i64), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 5)] {
        coo.push(r, c, v);
    }
    let a = ctx.matrix_from_coo(&coo, Plus::new());
    let u = Vector::filled(4, 1i64);

    let mut c = Matrix::new(4, 4);
    ctx.mxm(&mut c, None, no_accum(), PlusTimes::new(), &a, &a, &desc)
        .unwrap();
    let mut w = Vector::new(4);
    ctx.mxv(&mut w, None, no_accum(), PlusTimes::new(), &a, &u, &desc)
        .unwrap();
    let mut w2 = Vector::new(4);
    ctx.vxm(&mut w2, None, no_accum(), PlusTimes::new(), &u, &a, &desc)
        .unwrap();

    let mut e = Matrix::new(4, 4);
    ctx.ewise_add_mat(&mut e, None, no_accum(), Plus::new(), &a, &a, &desc)
        .unwrap();
    ctx.ewise_mult_mat(&mut e, None, no_accum(), Times::new(), &a, &a, &desc)
        .unwrap();
    let mut ev = Vector::new(4);
    ctx.ewise_add_vec(&mut ev, None, no_accum(), Plus::new(), &u, &w, &desc)
        .unwrap();
    ctx.ewise_mult_vec(&mut ev, None, no_accum(), Times::new(), &u, &w, &desc)
        .unwrap();

    let mut am = Matrix::new(4, 4);
    ctx.apply_mat(&mut am, None, no_accum(), AdditiveInverse::new(), &a, &desc)
        .unwrap();
    let mut av = Vector::new(4);
    ctx.apply_vec(&mut av, None, no_accum(), Identity::new(), &u, &desc)
        .unwrap();

    let _ = ctx.reduce_mat_scalar(PlusMonoid::new(), &a);
    let _ = ctx.reduce_vec_scalar(PlusMonoid::new(), &u);
    let mut rr = Vector::new(4);
    ctx.reduce_rows(&mut rr, None, no_accum(), PlusMonoid::new(), &a, &desc)
        .unwrap();

    let mut t = Matrix::new(4, 4);
    ctx.transpose(&mut t, None, no_accum(), &a, &desc).unwrap();

    let mut s = Matrix::new(4, 4);
    ctx.select_mat(&mut s, None, no_accum(), TriL, &a, &desc)
        .unwrap();
    let mut sv = Vector::new(4);
    ctx.select_vec(&mut sv, None, no_accum(), ValueGt(0i64), &u, &desc)
        .unwrap();

    let mut k = Matrix::new(16, 16);
    ctx.kronecker(&mut k, None, no_accum(), Times::new(), &a, &a, &desc)
        .unwrap();

    let sub = ctx.extract_mat(&a, &[0, 1], &[1, 2]).unwrap();
    let mut dst = Matrix::new(4, 4);
    ctx.assign_mat(&mut dst, &sub, &[0, 1], &[0, 1]).unwrap();
    let xv = ctx.extract_vec(&u, &[0, 2]).unwrap();
    let mut wv = Vector::<i64>::new(4);
    ctx.assign_vec(&mut wv, &xv, &[1, 3]).unwrap();
}

fn assert_all_ops_traced<B: Backend>(ctx: Context<B>) {
    let ctx = ctx.with_trace_mode(TraceMode::Summary);
    exercise_all_ops(&ctx);
    let r = ctx.trace();
    for op in ALL_OPS {
        let s = r.op(op).unwrap_or_else(|| {
            panic!("{}: op {op} missing from trace summary", ctx.backend_name())
        });
        assert!(s.calls >= 1, "{op} recorded zero calls");
    }
    assert_eq!(r.total_spans, r.spans.len() as u64, "nothing dropped here");
    assert_eq!(r.backend, ctx.backend_name());
}

#[test]
fn every_op_traced_on_all_backends() {
    assert_all_ops_traced(Context::sequential());
    assert_all_ops_traced(Context::parallel_with_threads(2));
    assert_all_ops_traced(Context::cuda_default());
}

#[test]
fn backend_sections_attach() {
    let par = Context::parallel_with_threads(2).with_trace_mode(TraceMode::Summary);
    exercise_all_ops(&par);
    let r = par.trace();
    let pool = r
        .sections
        .iter()
        .find(|s| s.title == "work-stealing pool")
        .expect("parallel backend section");
    assert!(pool.entries.iter().any(|(k, _)| k == "steals"));

    let cuda = Context::cuda_default().with_trace_mode(TraceMode::Summary);
    exercise_all_ops(&cuda);
    let r = cuda.trace();
    let dev = r
        .sections
        .iter()
        .find(|s| s.title == "simulated device")
        .expect("cuda-sim backend section");
    assert!(dev.entries.iter().any(|(k, _)| k == "kernels launched"));

    // The standalone accessor keeps working alongside the bridged section.
    assert!(cuda.gpu_stats().kernels_launched > 0);
}

#[test]
fn algorithms_record_spans() {
    let a = gbtl::algorithms::adjacency(karate_club());
    let ctx = Context::sequential().with_trace_mode(TraceMode::Summary);
    let _ = bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
    let _ = triangle_count(&ctx, &a).unwrap();
    let _ = connected_components(&ctx, &a).unwrap();
    let _ = gbtl::algorithms::pagerank(&ctx, &a, PageRankOptions::default()).unwrap();
    let r = ctx.trace();
    for op in ["vxm", "mxv", "mxm", "select_mat", "reduce_mat"] {
        assert!(r.op(op).is_some(), "algorithm suite never dispatched {op}");
    }
    // structure-only operands: no algorithm retypes the graph into a copy
    assert!(r.op("apply_mat").is_none(), "a typed copy of the graph");
    assert!(r.total_spans > 10);
}

/// Every JSON line parses back and names the backend that produced it.
fn assert_json_lines_parse_back<B: Backend>(ctx: Context<B>, backend: &str) {
    let ctx = ctx.with_trace_mode(TraceMode::Json);
    exercise_all_ops(&ctx);
    let r = ctx.trace();
    let jsonl = report::format_jsonl(&r);
    let mut summaries = 0usize;
    let mut spans = 0usize;
    let mut sections = 0usize;
    for line in jsonl.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSON line {line:?}: {e}"));
        assert_eq!(v.str_field("backend"), Some(backend), "{line}");
        match v.get("type").and_then(|t| t.as_str()) {
            Some("op_summary") => {
                summaries += 1;
                assert!(v.get("op").and_then(|o| o.as_str()).is_some());
                assert!(v.get("total_ns").and_then(|n| n.as_f64()).is_some());
            }
            Some("span") => {
                spans += 1;
                assert!(v.get("duration_ns").and_then(|n| n.as_f64()).is_some());
            }
            Some("section") => sections += 1,
            other => panic!("unknown record type {other:?}"),
        }
    }
    assert_eq!(summaries, r.ops.len());
    assert_eq!(spans, r.spans.len());
    assert_eq!(sections, r.sections.len());
    assert!(spans >= ALL_OPS.len());
}

#[test]
fn json_output_parses_back() {
    assert_json_lines_parse_back(Context::sequential(), "sequential");
    assert_json_lines_parse_back(Context::parallel_with_threads(2), "parallel");
    assert_json_lines_parse_back(Context::cuda_default(), "cuda-sim");
}

#[test]
fn off_mode_records_nothing() {
    let ctx = Context::sequential().with_trace_mode(TraceMode::Off);
    exercise_all_ops(&ctx);
    let r = ctx.trace();
    assert_eq!(r.total_spans, 0);
    assert!(r.ops.is_empty());
    assert!(r.spans.is_empty());
}

/// One BFS, SSSP and PageRank on karate; the ops `ctx` counted for them.
fn dispatched_by_three_algorithms<B: Backend>(ctx: &Context<B>) -> u64 {
    let a = gbtl::algorithms::adjacency(karate_club());
    let weighted = a
        .iter()
        .map(|(i, j, _)| (i, j, 1 + ((i + 2 * j) % 5) as u32));
    let w = Matrix::build(a.nrows(), a.ncols(), weighted, gbtl::algebra::Min::new()).unwrap();
    let before = ctx.dispatched_ops();
    bfs_levels(ctx, &a, 0, Direction::Auto).unwrap();
    gbtl::algorithms::sssp(ctx, &w, 0).unwrap();
    gbtl::algorithms::pagerank(ctx, &a, PageRankOptions::default()).unwrap();
    ctx.dispatched_ops() - before
}

#[test]
fn dispatched_ops_are_counted_whatever_the_mode() {
    fn check<B: Backend>(fresh: impl Fn() -> Context<B>) {
        let count = |mode| dispatched_by_three_algorithms(&fresh().with_trace_mode(mode));
        let off = count(TraceMode::Off);
        assert!(off > 0);
        assert_eq!(count(TraceMode::Json), off);
        let summary = fresh().with_trace_mode(TraceMode::Summary);
        assert_eq!(dispatched_by_three_algorithms(&summary), off);
        assert_eq!(
            summary.total_spans(),
            off,
            "a recording mode keeps every one"
        );

        // an unrecorded context whose request was sampled into a span tree
        let sampled = fresh().with_trace_mode(TraceMode::Off);
        let store = gbtl::trace::tree::store();
        let root = store.begin_root("test");
        sampled.set_request(None, Some(root));
        assert_eq!(dispatched_by_three_algorithms(&sampled), off);
        sampled.set_request(None, None);
        gbtl::trace::finish_request(root);
        let tree = store
            .get(root.trace_id)
            .expect("the sampled trace completed");
        let in_tree = tree
            .spans
            .iter()
            .filter(|sp| sp.name.starts_with("op.") || sp.name.starts_with("level."));
        assert_eq!(in_tree.count() as u64, off, "the tree got every one");
        assert_eq!(sampled.total_spans(), 0);
    }
    check(Context::sequential);
    check(|| Context::parallel_with_threads(2));
    check(Context::cuda_default);
}

#[test]
fn tracing_never_perturbs_results() {
    // Differential: float results must be bit-identical with tracing on/off.
    let a = gbtl::algorithms::adjacency(karate_club());
    let run = |mode: TraceMode| {
        let ctx = Context::sequential().with_trace_mode(mode);
        let (pr, _) = gbtl::algorithms::pagerank(&ctx, &a, PageRankOptions::default()).unwrap();
        let bits: Vec<(usize, u64)> = pr.iter().map(|(i, v)| (i, v.to_bits())).collect();
        let levels = bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
        (bits, levels)
    };
    let (pr_off, bfs_off) = run(TraceMode::Off);
    let (pr_sum, bfs_sum) = run(TraceMode::Summary);
    let (pr_json, bfs_json) = run(TraceMode::Json);
    assert_eq!(pr_off, pr_sum);
    assert_eq!(pr_off, pr_json);
    assert_eq!(bfs_off, bfs_sum);
    assert_eq!(bfs_off, bfs_json);
}

#[test]
fn clear_trace_resets() {
    let ctx = Context::sequential().with_trace_mode(TraceMode::Summary);
    exercise_all_ops(&ctx);
    assert!(ctx.trace().total_spans > 0);
    ctx.clear_trace();
    let r = ctx.trace();
    assert_eq!(r.total_spans, 0);
    assert!(r.ops.is_empty());
}
