//! Query-fusion integration: concurrent same-graph traversals against a
//! fusion-on server come back byte-identical to the fusion-off path (the
//! bit-identity bar of the batching subsystem), the batch-size metric
//! proves real coalescing happened, one expired member of a batch is
//! rejected without poisoning its groupmates, a refused query gets the same
//! rejection however it was admitted, and differential proptests
//! pin `bfs_levels_multi`/`sssp_multi` columns to the single-source
//! kernels across all three backends, `Aᵀ` resident or not — duplicate
//! roots and k=1 included.

use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use gbtl_net::{Engine as _, Reply, Submission};
use gbtl_serve::{start, Client, EnginePool, ServerConfig, ServerHandle};

use gbtl::algebra::Second;
use gbtl::algorithms::{bfs_levels, bfs_levels_multi, sssp, sssp_multi, Direction};
use gbtl::prelude::*;
use gbtl::util::json::Value;
use proptest::prelude::*;

fn test_config(fuse_on: bool) -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(), // ephemeral port
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 64,
        default_deadline_ms: 30_000,
        par_threads: 2,
        preload: vec![("karate".into(), "karate".into())],
        ..ServerConfig::default()
    };
    config.fuse.enabled = fuse_on;
    // wide enough that a barrier-released volley always lands inside one
    // window, even on a loaded CI box
    config.fuse.window = Duration::from_millis(150);
    config.fuse.max_batch = 64;
    config
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("connect to test server")
}

/// The raw `{...}` bytes of the response's `result` field. It is the last
/// field of a non-traced query response, so everything from `"result":` to
/// the outer closing brace is the fragment — byte comparison here is the
/// bit-identity check.
fn result_fragment(raw: &str) -> &str {
    let raw = raw.trim_end();
    let (_, rest) = raw.split_once("\"result\":").expect("result field");
    &rest[..rest.len() - 1]
}

/// Sum a named metric over every label set in the JSON registry section.
fn sum_over_labels(metrics_response: &Value, section: &str, name: &str, field: &str) -> u64 {
    metrics_response
        .get("metrics")
        .and_then(|m| m.get("registry"))
        .and_then(|r| r.get(section))
        .and_then(|s| s.as_arr())
        .expect("registry section")
        .iter()
        .filter(|e| e.str_field("name") == Some(name))
        .map(|e| e.u64_field(field).unwrap_or(0))
        .sum()
}

#[test]
fn fused_volley_byte_identical_to_solo_and_actually_batched() {
    // duplicate roots on purpose: members 0/5 and 3/7 share a source
    let sources = [0usize, 1, 2, 3, 12, 0, 33, 3];

    // fusion-off baseline: the exact response fragments the solo path emits
    let baseline = start(test_config(false)).unwrap();
    let mut c = connect(&baseline);
    let mut solo = std::collections::HashMap::new();
    for (algo, backend) in [("bfs", "par"), ("sssp", "seq")] {
        for &s in &sources {
            let raw = c
                .request(&format!(
                    "{{\"op\":\"query\",\"graph\":\"karate\",\"algo\":\"{algo}\",\
                     \"backend\":\"{backend}\",\"source\":{s}}}"
                ))
                .unwrap();
            solo.insert((algo, s), result_fragment(&raw).to_string());
        }
    }
    baseline.shutdown_and_join();

    // fusion-on: one barrier-released volley per algo, every client its own
    // connection so the requests are genuinely concurrent
    let handle = start(test_config(true)).unwrap();
    for (algo, backend) in [("bfs", "par"), ("sssp", "seq")] {
        let barrier = Arc::new(Barrier::new(sources.len()));
        let threads: Vec<_> = sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let addr = handle.addr().to_string();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut c = Client::connect(&addr).unwrap();
                    barrier.wait();
                    let raw = c
                        .request(&format!(
                            "{{\"op\":\"query\",\"id\":{i},\"graph\":\"karate\",\
                             \"algo\":\"{algo}\",\"backend\":\"{backend}\",\"source\":{s}}}"
                        ))
                        .unwrap();
                    (i, s, raw)
                })
            })
            .collect();
        for t in threads {
            let (i, s, raw) = t.join().unwrap();
            let v = gbtl::util::json::parse(&raw).unwrap();
            assert_eq!(v.bool_field("ok"), Some(true), "{algo} member {i}: {raw}");
            assert_eq!(v.u64_field("id"), Some(i as u64), "ids survive the demux");
            assert_eq!(v.bool_field("cached"), Some(false), "first volley misses");
            assert_eq!(
                result_fragment(&raw),
                solo[&(algo, s)],
                "{algo} source {s}: fused fragment differs from solo"
            );
        }
    }

    // the batch-size histogram proves the volleys really coalesced:
    // mean batch size (sum/count) must exceed 1
    let mut c = connect(&handle);
    let m = c.request_json("{\"op\":\"metrics\"}").unwrap();
    let batches = sum_over_labels(&m, "histograms", "gbtl_fuse_batch_size", "count");
    let members = sum_over_labels(&m, "histograms", "gbtl_fuse_batch_size", "sum");
    assert!(batches >= 1, "at least one fused batch ran");
    assert!(
        members > batches,
        "mean batch size must exceed 1 (got {members} members over {batches} batches)"
    );
    assert!(
        sum_over_labels(&m, "counters", "gbtl_fuse_requests_total", "value")
            >= 2 * sources.len() as u64,
        "every volley member was routed through the fusion window"
    );
    handle.shutdown_and_join();
}

#[test]
fn single_member_window_degenerates_to_the_solo_path() {
    let baseline = start(test_config(false)).unwrap();
    let mut c = connect(&baseline);
    let solo_raw = c
        .request("{\"op\":\"query\",\"graph\":\"karate\",\"algo\":\"bfs\",\"source\":4}")
        .unwrap();
    baseline.shutdown_and_join();

    let handle = start(test_config(true)).unwrap();
    let mut c = connect(&handle);
    let raw = c
        .request("{\"op\":\"query\",\"graph\":\"karate\",\"algo\":\"bfs\",\"source\":4}")
        .unwrap();
    let v = gbtl::util::json::parse(&raw).unwrap();
    assert_eq!(v.bool_field("ok"), Some(true), "{raw}");
    assert_eq!(result_fragment(&raw), result_fragment(&solo_raw));

    let m = c.request_json("{\"op\":\"metrics\"}").unwrap();
    assert_eq!(
        sum_over_labels(&m, "histograms", "gbtl_fuse_batch_size", "count"),
        0,
        "a lone member must not be recorded as a fused batch"
    );
    assert_eq!(
        sum_over_labels(&m, "counters", "gbtl_fuse_requests_total", "value"),
        1,
        "…but it did pass through the window (solo path)"
    );
    handle.shutdown_and_join();
}

/// A device charges a fused level the cheaper of push and pull, so a
/// query that forces a direction is not fusable: two concurrent ones on
/// one graph run solo (no batch, nothing through the window) and answer
/// exactly what the fusion-off server does.
fn forced_queries_run_solo_under_fusion(direction: &str) {
    let query = |s: usize| {
        format!(
            "{{\"op\":\"query\",\"id\":{s},\"graph\":\"karate\",\"algo\":\"bfs\",\
             \"backend\":\"seq\",\"source\":{s},\"direction\":\"{direction}\"}}"
        )
    };
    let sources = [0usize, 33];
    let baseline = start(test_config(false)).unwrap();
    let mut c = connect(&baseline);
    let solo: Vec<String> = sources
        .iter()
        .map(|&s| result_fragment(&c.request(&query(s)).unwrap()).to_string())
        .collect();
    baseline.shutdown_and_join();

    let handle = start(test_config(true)).unwrap();
    let barrier = Arc::new(Barrier::new(sources.len()));
    let threads: Vec<_> = sources
        .iter()
        .map(|&s| {
            let (addr, barrier, line) = (handle.addr().to_string(), Arc::clone(&barrier), query(s));
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                barrier.wait();
                c.request(&line).unwrap()
            })
        })
        .collect();
    for (t, want) in threads.into_iter().zip(&solo) {
        let raw = t.join().unwrap();
        assert_eq!(result_fragment(&raw), want, "{raw}");
    }
    let mut c = connect(&handle);
    let m = c.request_json("{\"op\":\"metrics\"}").unwrap();
    assert_eq!(
        sum_over_labels(&m, "histograms", "gbtl_fuse_batch_size", "count"),
        0,
        "no forced-{direction} batch"
    );
    assert_eq!(
        sum_over_labels(&m, "counters", "gbtl_fuse_requests_total", "value"),
        0,
        "forced {direction} bypasses the window"
    );
    handle.shutdown_and_join();
}

#[test]
fn forced_pull_queries_run_solo_under_fusion() {
    forced_queries_run_solo_under_fusion("pull");
}

#[test]
fn forced_push_queries_run_solo_under_fusion() {
    forced_queries_run_solo_under_fusion("push");
}

/// The satellite-1 regression: one member of a batch whose deadline expires
/// inside the window gets the standard `deadline` rejection, and the other
/// k-1 members still get real answers — the group is not poisoned.
#[test]
fn expired_member_rejected_without_poisoning_the_group() {
    let pool = EnginePool::new(test_config(true)).unwrap();
    let workers = pool.spawn_workers();

    // four members of one compatibility key; member 2's deadline (1 ms) is
    // shorter than the 150 ms window, so it must expire while held
    let mut rxs = Vec::new();
    for (i, source) in [0usize, 1, 2, 3].into_iter().enumerate() {
        let deadline_ms = if i == 2 { 1 } else { 60_000 };
        let (tx, rx) = mpsc::channel();
        let reply = Reply::new(move |response: String| {
            let _ = tx.send(response);
        });
        let line = format!(
            "{{\"op\":\"query\",\"id\":{i},\"graph\":\"karate\",\"algo\":\"bfs\",\
             \"source\":{source},\"deadline_ms\":{deadline_ms}}}"
        );
        match pool.submit(&line, reply, None) {
            Submission::Accepted => rxs.push((i, rx)),
            other => panic!("member {i} must be held by the window, got {other:?}"),
        }
    }

    for (i, rx) in rxs {
        let raw = rx.recv_timeout(Duration::from_secs(10)).expect("reply");
        let v = gbtl::util::json::parse(&raw).unwrap();
        assert_eq!(
            v.u64_field("id"),
            Some(i as u64),
            "reply routed to member {i}"
        );
        if i == 2 {
            assert_eq!(v.bool_field("ok"), Some(false), "{raw}");
            assert_eq!(v.str_field("code"), Some("deadline"), "{raw}");
        } else {
            assert_eq!(v.bool_field("ok"), Some(true), "member {i} poisoned: {raw}");
            assert_eq!(
                v.get("result").and_then(|r| r.u64_field("reached")),
                Some(34),
                "member {i} got a real answer"
            );
        }
    }

    pool.drain();
    for w in workers {
        w.join().unwrap();
    }
}

/// Shutdown mid-window: held members are flushed by `drain()` and answered
/// (possibly with a rejection) — never stranded.
#[test]
fn drain_flushes_the_open_window() {
    let pool = EnginePool::new(test_config(true)).unwrap();
    let workers = pool.spawn_workers();

    let (tx, rx) = mpsc::channel();
    let reply = Reply::new(move |response: String| {
        let _ = tx.send(response);
    });
    let line = "{\"op\":\"query\",\"id\":9,\"graph\":\"karate\",\"algo\":\"bfs\",\"source\":0}";
    assert!(matches!(
        pool.submit(line, reply, None),
        Submission::Accepted
    ));

    // drain immediately — well inside the 150 ms window
    pool.drain();
    let raw = rx.recv_timeout(Duration::from_secs(10)).expect("reply");
    let v = gbtl::util::json::parse(&raw).unwrap();
    assert_eq!(v.u64_field("id"), Some(9));
    assert_eq!(
        v.bool_field("ok"),
        Some(true),
        "drained member answered: {raw}"
    );
    for w in workers {
        w.join().unwrap();
    }
}

/// Rejection parity: however a query reached the job queue — never fused,
/// a window group of one, one member of a k = 3 group — a refusal is the
/// same error object (modulo `id`) and bumps its counter exactly once.
/// No workers run, so a capacity-1 queue filled by one `sleep` stays full
/// and every outcome below is decided inside `submit`: the solo is refused
/// inline, a group that reaches `max_batch` is released — and refused
/// through each member's reply — by the push that filled it, and after
/// `drain()` the closed window and the closed queue refuse alike.
#[test]
fn rejections_are_identical_however_a_query_was_admitted() {
    let bfs = |id: u64, source: usize| {
        format!(
            "{{\"op\":\"query\",\"id\":{id},\"graph\":\"karate\",\"algo\":\"bfs\",\
             \"source\":{source}}}"
        )
    };
    // (shape, max_batch that releases the group at its last push, requests)
    let shapes: [(&str, usize, Vec<String>); 3] = [
        (
            "never-fused solo",
            64,
            vec!["{\"op\":\"query\",\"id\":10,\"graph\":\"karate\",\"algo\":\"cc\"}".to_string()],
        ),
        ("window group of one", 1, vec![bfs(20, 0)]),
        (
            "member of a k=3 group",
            3,
            vec![bfs(30, 0), bfs(31, 1), bfs(32, 2)],
        ),
    ];
    type Refuse = fn(&EnginePool);
    type Count = fn(&EnginePool) -> u64;
    let cases: [(&str, Refuse, Count); 2] = [
        (
            "overloaded",
            |pool| {
                let filler = pool.submit("{\"op\":\"sleep\",\"ms\":0}", Reply::new(|_| {}), None);
                assert!(matches!(filler, Submission::Accepted));
            },
            |pool| pool.shard_snapshot().rejected_overloaded,
        ),
        (
            "shutting_down",
            |pool| pool.drain(),
            |pool| pool.shard_snapshot().rejected_shutdown,
        ),
    ];

    for (code, refuse, count) in cases {
        let mut seen: Vec<(&str, String)> = Vec::new();
        for (shape, max_batch, lines) in &shapes {
            let mut config = test_config(true);
            config.queue_capacity = 1;
            config.fuse.max_batch = *max_batch;
            let pool = EnginePool::new(config).unwrap();
            refuse(&pool);

            let mut answers = Vec::new();
            for line in lines {
                let (tx, rx) = mpsc::channel();
                let reply = Reply::new(move |response: String| {
                    let _ = tx.send(response);
                });
                answers.push(match pool.submit(line, reply, None) {
                    Submission::Inline(raw) => Ok(raw),
                    Submission::Accepted => Err(rx),
                });
            }
            for (line, answer) in lines.iter().zip(answers) {
                let raw = answer.unwrap_or_else(|rx| {
                    rx.recv_timeout(Duration::from_secs(10))
                        .unwrap_or_else(|_| panic!("{code} / {shape}: {line} was stranded"))
                });
                let v = gbtl::util::json::parse(&raw).unwrap();
                assert_eq!(v.str_field("code"), Some(code), "{shape}: {raw}");
                let id = v.u64_field("id").expect("rejections echo the id");
                assert!(line.contains(&format!("\"id\":{id},")), "{shape}: {raw}");
                seen.push((shape, raw.replace(&format!("\"id\":{id},"), "")));
            }
            assert_eq!(
                count(&pool),
                lines.len() as u64,
                "{code} / {shape}: one count per refused request"
            );
        }
        for (shape, error) in &seen {
            assert_eq!(
                error, &seen[0].1,
                "{code}: {shape} differs from {}",
                seen[0].0
            );
        }
    }
}

// ---------------------------------------------------------------------------
// differential proptests: multi-source kernels vs the single-source kernels
// ---------------------------------------------------------------------------

fn arb_adjacency(n: usize, max_nnz: usize) -> impl Strategy<Value = Matrix<bool>> {
    proptest::collection::vec((0..n, 0..n), 0..max_nnz).prop_map(move |pairs| {
        let triples: Vec<(usize, usize, bool)> =
            pairs.into_iter().map(|(i, j)| (i, j, true)).collect();
        Matrix::build(n, n, triples, Second::new()).expect("in bounds")
    })
}

fn arb_weighted(n: usize, max_nnz: usize) -> impl Strategy<Value = Matrix<u32>> {
    proptest::collection::vec((0..n, 0..n, 1u32..16), 0..max_nnz).prop_map(move |triples| {
        Matrix::build(n, n, triples, gbtl::algebra::Min::new()).expect("in bounds")
    })
}

const N: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every column of a multi-source BFS equals the corresponding
    /// single-source run, on every backend — duplicate roots included.
    #[test]
    fn bfs_multi_columns_match_solo(
        a in arb_adjacency(N, 64),
        roots in proptest::collection::vec(0..N, 1..6),
    ) {
        for (name, (multi, solos)) in [
            ("seq", {
                let ctx = Context::sequential();
                (bfs_levels_multi(&ctx, &a, &roots).unwrap(),
                 roots.iter().map(|&r| bfs_levels(&ctx, &a, r, Direction::Auto).unwrap())
                      .collect::<Vec<_>>())
            }),
            ("par", {
                let ctx = Context::parallel_with_threads(2);
                (bfs_levels_multi(&ctx, &a, &roots).unwrap(),
                 roots.iter().map(|&r| bfs_levels(&ctx, &a, r, Direction::Auto).unwrap())
                      .collect::<Vec<_>>())
            }),
            ("cuda", {
                let ctx = Context::cuda_default();
                (bfs_levels_multi(&ctx, &a, &roots).unwrap(),
                 roots.iter().map(|&r| bfs_levels(&ctx, &a, r, Direction::Auto).unwrap())
                      .collect::<Vec<_>>())
            }),
            ("cuda, Aᵀ resident", {
                let ctx = Context::cuda_default();
                ctx.prewarm_transpose(&a);
                (bfs_levels_multi(&ctx, &a, &roots).unwrap(),
                 roots.iter().map(|&r| bfs_levels(&ctx, &a, r, Direction::Auto).unwrap())
                      .collect::<Vec<_>>())
            }),
        ] {
            prop_assert_eq!(multi.len(), solos.len());
            for (k, (m, s)) in multi.iter().zip(&solos).enumerate() {
                prop_assert_eq!(m, s, "{} root #{} ({})", name, k, roots[k]);
            }
        }
    }

    /// Same contract for multi-source SSSP over `u32` weights.
    #[test]
    fn sssp_multi_columns_match_solo(
        a in arb_weighted(N, 64),
        roots in proptest::collection::vec(0..N, 1..6),
    ) {
        for (name, (multi, solos)) in [
            ("seq", {
                let ctx = Context::sequential();
                (sssp_multi(&ctx, &a, &roots).unwrap(),
                 roots.iter().map(|&r| sssp(&ctx, &a, r).unwrap()).collect::<Vec<_>>())
            }),
            ("par", {
                let ctx = Context::parallel_with_threads(2);
                (sssp_multi(&ctx, &a, &roots).unwrap(),
                 roots.iter().map(|&r| sssp(&ctx, &a, r).unwrap()).collect::<Vec<_>>())
            }),
            ("cuda", {
                let ctx = Context::cuda_default();
                (sssp_multi(&ctx, &a, &roots).unwrap(),
                 roots.iter().map(|&r| sssp(&ctx, &a, r).unwrap()).collect::<Vec<_>>())
            }),
            ("cuda, Aᵀ resident", {
                let ctx = Context::cuda_default();
                ctx.prewarm_transpose(&a);
                (sssp_multi(&ctx, &a, &roots).unwrap(),
                 roots.iter().map(|&r| sssp(&ctx, &a, r).unwrap()).collect::<Vec<_>>())
            }),
        ] {
            prop_assert_eq!(multi.len(), solos.len());
            for (k, (m, s)) in multi.iter().zip(&solos).enumerate() {
                prop_assert_eq!(m, s, "{} root #{} ({})", name, k, roots[k]);
            }
        }
    }

    /// k = 1 is exactly the solo result — the degenerate batch costs
    /// nothing in fidelity.
    #[test]
    fn k1_multi_is_solo(a in arb_adjacency(N, 64), root in 0..N) {
        let ctx = Context::sequential();
        let multi = bfs_levels_multi(&ctx, &a, &[root]).unwrap();
        let solo = bfs_levels(&ctx, &a, root, Direction::Auto).unwrap();
        prop_assert_eq!(multi.len(), 1);
        prop_assert_eq!(&multi[0], &solo);
    }
}

/// The cuda-sim half of the fusion verdict, on the modeled device clock
/// (deterministic, unlike wall time): one fused 16-source traversal costs
/// less than the 16 solo traversals it replaces, on a high-diameter grid
/// and a skewed RMAT graph. The solo loop pays one launch train per level
/// per source; the fused level pays one. (On host wall time the solo loop
/// wins — that half is perfbench's to measure.) With `Aᵀ` resident both
/// sides are priced both ways: a solo level as one pull, a fused one as
/// one k-stacked pull (docs/adr/0012, 0015).
fn fused_against_solo_modeled_ps(resident: bool) -> Vec<(String, u64, u64)> {
    use gbtl::graphgen::{grid_2d, symmetrize, weights, Rmat};
    let grid = grid_2d(16, 16);
    let rmat = symmetrize(&Rmat::new(9, 8).seed(7).generate());
    let mut rows = Vec::new();
    for (name, coo) in [("grid16", grid), ("rmat9", rmat)] {
        let a = gbtl::algorithms::adjacency(coo.clone());
        let w = weights::uniform_u32_symmetric(&coo, 1, 255, 3);
        let w = Matrix::build(
            a.nrows(),
            a.ncols(),
            w.iter().filter(|&(i, j, _)| i != j),
            gbtl::algebra::Min::new(),
        )
        .unwrap();
        let sources: Vec<usize> = (0..16).map(|k| k * a.nrows() / 16).collect();
        let modeled_ps = |run: &dyn Fn(&Context<CudaBackend>)| {
            let ctx = Context::cuda_default();
            let ctx = if resident {
                with_transposes(ctx, &a, &w)
            } else {
                ctx
            };
            ctx.reset_gpu_stats();
            run(&ctx);
            ctx.gpu_stats().modeled_ps
        };
        let fused = modeled_ps(&|ctx| drop(bfs_levels_multi(ctx, &a, &sources).unwrap()));
        let solo = modeled_ps(&|ctx| {
            for &s in &sources {
                bfs_levels(ctx, &a, s, Direction::Auto).unwrap();
            }
        });
        rows.push((format!("{name} bfs"), fused, solo));
        let fused = modeled_ps(&|ctx| drop(sssp_multi(ctx, &w, &sources).unwrap()));
        let solo = modeled_ps(&|ctx| {
            for &s in &sources {
                sssp(ctx, &w, s).unwrap();
            }
        });
        rows.push((format!("{name} sssp"), fused, solo));
    }
    rows
}

#[test]
fn fused_traversal_costs_less_modeled_time_than_the_solo_loop() {
    for (what, fused, solo) in fused_against_solo_modeled_ps(false) {
        assert!(fused < solo, "{what}: fused {fused} ps vs solo {solo} ps");
    }
}

/// R-F8 with `Aᵀ` resident (ADR 0015): every solo level may be charged
/// its pull, and still the fused batch costs less, by 2.5× or more.
#[test]
fn fused_traversal_costs_less_modeled_time_than_the_solo_loop_with_at_resident() {
    for (what, fused, solo) in fused_against_solo_modeled_ps(true) {
        let ms = |ps: u64| ps as f64 / 1e9;
        eprintln!("{what}: fused {:.3} ms, solo {:.3} ms", ms(fused), ms(solo));
        assert!(
            5 * fused < 2 * solo,
            "{what}: fused {fused} ps vs solo {solo} ps"
        );
    }
}

/// `ctx` holding both traversed matrices' transposes.
fn with_transposes<B: Backend>(ctx: Context<B>, a: &Matrix<bool>, w: &Matrix<u32>) -> Context<B> {
    ctx.prewarm_transpose(a);
    ctx.prewarm_transpose(w);
    ctx
}

/// Fused ≡ solo at workload scale, where the proptests' 16-vertex graphs
/// rarely reach: an rmat10 from its 16 highest-degree roots and a grid32,
/// both multi-source kernels, every backend. The rmat's hub levels scan at
/// least `n` entries per product row and take `mxm`'s sweep path, its
/// tail levels and the grid's the sort path; both are asserted.
#[test]
fn fused_equals_solo_at_workload_scale() {
    use gbtl::graphgen::{grid_2d, symmetrize, weights, Rmat};
    fn check<B: Backend>(
        ctx: &Context<B>,
        name: &str,
        a: &Matrix<bool>,
        w: &Matrix<u32>,
        sources: &[usize],
    ) {
        let multi = bfs_levels_multi(ctx, a, sources).unwrap();
        for (r, &s) in sources.iter().enumerate() {
            let solo = bfs_levels(ctx, a, s, Direction::Auto).unwrap();
            assert_eq!(
                multi[r],
                solo,
                "{name} bfs on {}, root {s}",
                ctx.backend().name()
            );
        }
        let multi = sssp_multi(ctx, w, sources).unwrap();
        for (r, &s) in sources.iter().enumerate() {
            let solo = sssp(ctx, w, s).unwrap();
            assert_eq!(
                multi[r],
                solo,
                "{name} sssp on {}, root {s}",
                ctx.backend().name()
            );
        }
    }
    let rmat = symmetrize(&Rmat::new(10, 8).seed(7).generate());
    let (mut swept, mut sorted) = (0, 0);
    for (name, coo) in [("rmat10", rmat), ("grid32", grid_2d(32, 32))] {
        let a = gbtl::algorithms::adjacency(coo.clone());
        let w = weights::uniform_u32_symmetric(&coo, 1, 255, 3);
        let w = Matrix::build(
            a.nrows(),
            a.ncols(),
            w.iter().filter(|&(i, j, _)| i != j),
            gbtl::algebra::Min::new(),
        )
        .unwrap();
        let n = a.nrows();
        let degree = |v: usize| a.csr().row_nnz(v);
        let mut by_degree: Vec<usize> = (0..n).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v));
        let sources = &by_degree[..16];

        // a BFS level's product row scans its frontier's out-degrees:
        // bucket each member's vertices by solo level, count both paths
        let ctx = Context::sequential();
        for &s in sources {
            let levels = bfs_levels(&ctx, &a, s, Direction::Auto).unwrap();
            let mut scanned = vec![0usize; n];
            for (v, depth) in levels.iter() {
                scanned[depth as usize] += degree(v);
            }
            swept += scanned.iter().filter(|&&e| e >= n).count();
            sorted += scanned.iter().filter(|&&e| 0 < e && e < n).count();
        }
        check(&ctx, name, &a, &w, sources);
        check(&Context::parallel_with_threads(2), name, &a, &w, sources);
        check(&Context::cuda_default(), name, &a, &w, sources);
        // `Aᵀ` resident: solo levels may pull, and cuda-sim prices every
        // fused level both ways (docs/adr/0015); the answers stay put
        let par = Context::parallel_with_threads(2);
        check(
            &with_transposes(Context::sequential(), &a, &w),
            name,
            &a,
            &w,
            sources,
        );
        check(&with_transposes(par, &a, &w), name, &a, &w, sources);
        check(
            &with_transposes(Context::cuda_default(), &a, &w),
            name,
            &a,
            &w,
            sources,
        );
    }
    assert!(
        swept > 0 && sorted > 0,
        "swept {swept} levels, sorted {sorted}"
    );
}
