//! Differential direction tests: forced push, forced pull, and auto must
//! produce **bit-identical** results on every backend, across random
//! graphs — BFS levels, SSSP distances, and BC scores. The traversal
//! direction is a schedule, never a semantic: BFS's LorLand is
//! set-semantics, SSSP's MinPlus and BC's PlusTimes have commutative ⊗
//! and order-independent ⊕, and both kernel orientations accumulate each
//! output slot in ascending input index.
//!
//! `Aᵀ` is prewarmed on every context so auto's cache-residency gate is
//! open and the rule genuinely mixes directions (on the rmat-7 graphs the
//! middle levels' frontiers carry several times the unvisited rows' edges).
//!
//! The decision-record tests below read the level spans back: on the CPU
//! backends `Auto` follows the edge work (BFS takes both directions, SSSP's
//! unmasked rounds never pull a light frontier). cuda-sim computes a level
//! in that same direction; a level the host pushes, masked (BFS's, BC's)
//! or not (SSSP's), is charged the direction its device model prices
//! cheaper, from the level's result, and records both prices and the one
//! it charged; a level the host pulls is charged its pull (docs/adr/0012).
//! So cuda-sim's `Auto` is never dearer on the modeled clock than forced
//! pull, and SSSP's, which the host always pushes, than forced push. A
//! fused level, which the host always pushes, is priced the same way
//! against one k-stacked pull (docs/adr/0015).

use gbtl::algorithms::{
    betweenness_centrality_with_direction, bfs_levels, bfs_levels_multi, sssp_multi,
    sssp_with_direction, Direction,
};
use gbtl::graphgen::{symmetrize, torus_2d, weights, Rmat};
use gbtl::prelude::*;
use gbtl::sparse::CooMatrix;
use proptest::prelude::*;

const FORCED: [Direction; 2] = [Direction::Pull, Direction::Auto];

fn random_graph(seed: u64) -> Matrix<bool> {
    gbtl::algorithms::adjacency(symmetrize(&Rmat::new(7, 4).seed(seed).generate()))
}

fn weighted_graph(seed: u64) -> Matrix<u32> {
    let structure = symmetrize(&Rmat::new(6, 4).seed(seed).generate());
    let weighted = weights::uniform_u32_symmetric(&structure, 1, 100, seed);
    // Min keeps the lightest parallel edge; self loops never shorten paths
    // but dropping them keeps the reference graph simple
    Matrix::build(
        64,
        64,
        weighted.iter().filter(|&(i, j, _)| i != j),
        gbtl::algebra::Min::new(),
    )
    .unwrap()
}

/// Run BFS under every mode on one context; all must equal forced push.
fn bfs_modes_agree<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>, src: usize) -> Vector<u64> {
    ctx.prewarm_transpose(a);
    let base = bfs_levels(ctx, a, src, Direction::Push).unwrap();
    for d in FORCED {
        assert_eq!(base, bfs_levels(ctx, a, src, d).unwrap(), "bfs {d:?}");
    }
    base
}

/// Run SSSP under every mode on one context; all must equal forced push.
fn sssp_modes_agree<B: Backend>(ctx: &Context<B>, a: &Matrix<u32>, src: usize) -> Vector<u32> {
    ctx.prewarm_transpose(a);
    let base = sssp_with_direction(ctx, a, src, Direction::Push).unwrap();
    for d in FORCED {
        assert_eq!(
            base,
            sssp_with_direction(ctx, a, src, d).unwrap(),
            "sssp {d:?}"
        );
    }
    base
}

/// Run BC under every mode on one context; all must be *exactly* equal
/// (f64, but the per-slot accumulation order is fixed across kernels).
fn bc_modes_agree<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>, sources: &[usize]) {
    let base = betweenness_centrality_with_direction(ctx, a, sources, Direction::Push).unwrap();
    for d in FORCED {
        assert_eq!(
            base,
            betweenness_centrality_with_direction(ctx, a, sources, d).unwrap(),
            "bc {d:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn bfs_levels_direction_agnostic(seed in 0u64..500) {
        let a = random_graph(seed);
        let seq = bfs_modes_agree(&Context::sequential(), &a, 0);
        let par = bfs_modes_agree(&Context::parallel(), &a, 0);
        let cuda = bfs_modes_agree(&Context::cuda_default(), &a, 0);
        // and the mode-independent answer is backend-independent too
        prop_assert_eq!(&seq, &par);
        prop_assert_eq!(&seq, &cuda);
    }

    #[test]
    fn sssp_distances_direction_agnostic(seed in 0u64..500) {
        let a = weighted_graph(seed);
        let seq = sssp_modes_agree(&Context::sequential(), &a, 0);
        let par = sssp_modes_agree(&Context::parallel(), &a, 0);
        let cuda = sssp_modes_agree(&Context::cuda_default(), &a, 0);
        prop_assert_eq!(&seq, &par);
        prop_assert_eq!(&seq, &cuda);
    }

    #[test]
    fn bc_scores_direction_agnostic(seed in 0u64..200) {
        let a = random_graph(seed);
        let sources = [0usize, 3, 17];
        // within-backend only: direction must not perturb a single bit,
        // while cross-backend f64 comparisons belong to the algorithm
        // validation suite (scalar-reduce rounding differs by design)
        bc_modes_agree(&Context::sequential(), &a, &sources);
        bc_modes_agree(&Context::parallel(), &a, &sources);
        bc_modes_agree(&Context::cuda_default(), &a, &sources);
    }
}

/// A symmetric structure as the boolean adjacency and `u32` weights the
/// traversals run on, plus its highest-degree vertex (lowest index on ties).
fn traversal_graph(structure: &CooMatrix<bool>) -> (Matrix<bool>, Matrix<u32>, usize) {
    let adj = gbtl::algorithms::adjacency(structure.clone());
    let w = Matrix::from_coo(
        weights::uniform_u32_symmetric(structure, 1, 255, 1),
        gbtl::algebra::Min::new(),
    );
    let hub = (0..adj.nrows())
        .max_by_key(|&v| (adj.csr().row_nnz(v), std::cmp::Reverse(v)))
        .unwrap();
    (adj, w, hub)
}

/// The decision records of the traversal `run` performs on `ctx`:
/// `(pulled, push_edges)` per level, read back from the level spans.
fn level_records<B: Backend>(ctx: &Context<B>, run: impl FnOnce()) -> Vec<(bool, usize)> {
    ctx.clear_trace();
    run();
    let field = |label: &str, key: &str| -> String {
        let rest = label.split(key).nth(1).expect("decision record field");
        rest.split(' ').next().unwrap().to_string()
    };
    ctx.trace()
        .spans
        .iter()
        .filter(|sp| sp.fields.op == "level")
        .map(|sp| {
            let label = &sp.fields.op_label;
            assert_eq!(field(label, "pull_ready="), "true", "{label}");
            (
                field(label, "dir=") == "pull",
                field(label, "push_edges=").parse().unwrap(),
            )
        })
        .collect()
}

#[test]
fn auto_is_the_per_level_rule_whatever_the_environment_says() {
    // no traversal reads the environment: the retired process-wide default
    // must not turn a caller's `Auto` into a forced direction
    std::env::set_var("GBTL_DIRECTION", "pull");
    let policy = gbtl::core::DirectionPolicy::new(Direction::Auto, 100, 1000, true);
    assert_eq!(policy.mode(), Direction::Auto);
}

#[test]
fn cpu_auto_follows_the_edge_work() {
    fn check<B: Backend>(ctx: Context<B>) {
        let ctx = ctx.with_trace_mode(TraceMode::Summary);
        let (adj, w, hub) = traversal_graph(&symmetrize(&Rmat::new(12, 8).seed(1).generate()));
        ctx.seed_symmetric_transpose(&adj);
        ctx.seed_symmetric_transpose(&w);
        let name = ctx.backend_name();

        // BFS from a hub: the hub's level carries most of the edges, so it
        // pulls; the first and the last level, a handful of edges, push
        let bfs = level_records(&ctx, || {
            bfs_levels(&ctx, &adj, hub, Direction::Auto).unwrap();
        });
        assert!(bfs.iter().any(|&(pulled, _)| pulled), "{name}: {bfs:?}");
        assert!(bfs.iter().any(|&(pulled, _)| !pulled), "{name}: {bfs:?}");

        // SSSP: an unmasked pull scans all of nnz(A) however few vertices
        // improved, so no round whose frontier holds under half of it pulls
        let sssp = level_records(&ctx, || {
            sssp_with_direction(&ctx, &w, hub, Direction::Auto).unwrap();
        });
        assert!(sssp.len() > 4, "{name}: {sssp:?}");
        for (round, &(pulled, push_edges)) in sssp.iter().enumerate() {
            assert!(
                !pulled || 2 * push_edges >= w.nnz(),
                "{name}: round {} pulled a frontier of {push_edges} edges, nnz(A) = {}",
                round + 1,
                w.nnz()
            );
        }
    }
    check(Context::sequential());
    check(Context::parallel_with_threads(1));
    check(Context::parallel_with_threads(2));
}

/// The `k` highest-degree vertices of `a`, lowest index first on ties.
fn top_degree(a: &Matrix<bool>, k: usize) -> Vec<usize> {
    let mut by_degree: Vec<usize> = (0..a.nrows()).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(a.csr().row_nnz(v)), v));
    by_degree.truncate(k);
    by_degree
}

#[test]
fn cuda_auto_is_never_dearer_than_either_forced_direction() {
    let graphs = [
        symmetrize(&Rmat::new(12, 8).seed(1).generate()),
        torus_2d(48, 48),
    ];
    for structure in &graphs {
        let (adj, w, _) = traversal_graph(structure);
        let (seq, cuda) = (Context::sequential(), Context::cuda_default());
        cuda.prewarm_transpose(&adj);
        cuda.prewarm_transpose(&w);
        let n = adj.nrows();
        // the modeled picoseconds one solve charges a zeroed device
        let modeled = |solve: &dyn Fn()| {
            cuda.reset_gpu_stats();
            solve();
            cuda.gpu_stats().modeled_ps
        };
        let modes = [Direction::Auto, Direction::Push, Direction::Pull];
        // A level the host pushes is charged the cheaper of its push and
        // its pull, and one it pulls is charged its pull, so no solve's
        // `Auto` costs more than its forced pull. Forced push bounds only
        // SSSP, whose unmasked rounds the host never pulls: a masked level
        // (BFS's, BC's) the host pulls is not priced as a push, so a BFS or
        // BC `Auto` may cost more than its forced push.
        let hubs = top_degree(&adj, 4);
        for &src in &hubs {
            let want_bfs = bfs_levels(&seq, &adj, src, Direction::Push).unwrap();
            let want_sssp = sssp_with_direction(&seq, &w, src, Direction::Push).unwrap();
            let [auto_bfs, push_bfs, pull_bfs] = modes.map(|d| {
                modeled(&|| assert_eq!(bfs_levels(&cuda, &adj, src, d).unwrap(), want_bfs))
            });
            let [auto_sssp, push_sssp, pull_sssp] = modes.map(|d| {
                let got = || sssp_with_direction(&cuda, &w, src, d).unwrap();
                modeled(&|| assert_eq!(got(), want_sssp))
            });
            assert!(
                auto_bfs <= pull_bfs && push_bfs > 0,
                "bfs n={n} src={src}: auto {auto_bfs} push {push_bfs} pull {pull_bfs}"
            );
            assert!(
                auto_sssp <= push_sssp.min(pull_sssp),
                "sssp n={n} src={src}: auto {auto_sssp} push {push_sssp} pull {pull_sssp}"
            );
        }
        let want_bc =
            betweenness_centrality_with_direction(&seq, &adj, &hubs, Direction::Push).unwrap();
        let [auto_bc, push_bc, pull_bc] = modes.map(|d| {
            let got = || betweenness_centrality_with_direction(&cuda, &adj, &hubs, d).unwrap();
            modeled(&|| assert_eq!(got(), want_bc))
        });
        assert!(
            auto_bc <= pull_bc && push_bc > 0,
            "bc n={n}: auto {auto_bc} push {push_bc} pull {pull_bc}"
        );
    }
}

/// A level span's device record, `(device, price_push_ps, price_pull_ps)`,
/// where the device chose what it was charged.
fn device_record(label: &str) -> Option<(String, u64, u64)> {
    let field = |key: &str| -> Option<String> {
        let rest = label.split(key).nth(1)?;
        Some(rest.split(' ').next().unwrap().to_string())
    };
    let price = |key| field(key).map(|v| v.parse().unwrap());
    Some((
        field("device=")?,
        price("price_push_ps=")?,
        price("price_pull_ps=")?,
    ))
}

/// What a level with a device record was charged, after checking that it
/// is the cheaper of its two prices.
fn charged_price(label: &str) -> u64 {
    let (device, push, pull) = device_record(label).expect(label);
    let (mine, other) = match device.as_str() {
        "push" => (push, pull),
        "pull" => (pull, push),
        _ => panic!("{label}"),
    };
    assert!(mine <= other, "{label}");
    mine
}

#[test]
fn cuda_levels_record_and_charge_the_cheaper_price() {
    let ctx = Context::cuda_default().with_trace_mode(TraceMode::Summary);
    let (adj, w, hub) = traversal_graph(&symmetrize(&Rmat::new(12, 8).seed(1).generate()));
    ctx.seed_symmetric_transpose(&adj);
    ctx.seed_symmetric_transpose(&w);
    let modeled_ps = |solve: &dyn Fn()| {
        let before = ctx.gpu_stats().modeled_ps;
        solve();
        ctx.gpu_stats().modeled_ps - before
    };
    let levels = || -> Vec<String> {
        let spans = ctx.trace().spans;
        let levels = spans.iter().filter(|sp| sp.fields.op == "level");
        levels.map(|sp| sp.fields.op_label.clone()).collect()
    };

    // BFS's masked levels: one the host pushes is priced both ways and
    // charged the cheaper; one it pulls is charged its pull and records no
    // price. A forced-pull BFS charges every level its pull, so it costs
    // exactly what the priced levels saved more.
    let forced_pull_ps = modeled_ps(&|| {
        bfs_levels(&ctx, &adj, hub, Direction::Pull).unwrap();
    });
    ctx.clear_trace();
    let auto_ps = modeled_ps(&|| {
        bfs_levels(&ctx, &adj, hub, Direction::Auto).unwrap();
    });
    let (mut priced, mut host_pulled, mut saved) = (0, 0, 0u64);
    for label in levels() {
        if label.contains("dir=pull") {
            assert!(device_record(&label).is_none(), "{label}");
            host_pulled += 1;
            continue;
        }
        let (_, _, pull) = device_record(&label).expect(&label);
        saved += pull - charged_price(&label);
        priced += 1;
    }
    assert!(
        priced > 1 && host_pulled > 0,
        "{priced} levels priced, {host_pulled} pulled by the host"
    );
    assert_eq!(
        forced_pull_ps - auto_ps,
        saved,
        "forced pull {forced_pull_ps} ps, auto {auto_ps} ps, {priced} priced levels"
    );

    // SSSP's unmasked levels, all pushed by the host, are charged the
    // cheaper of two prices
    ctx.clear_trace();
    let auto_ps = modeled_ps(&|| {
        sssp_with_direction(&ctx, &w, hub, Direction::Auto).unwrap();
    });
    let (mut levels_n, mut charged, mut pulled) = (0, 0u64, 0);
    for label in levels() {
        charged += charged_price(&label);
        levels_n += 1;
        pulled += label.contains("device=pull") as usize;
    }
    assert!(
        levels_n > 2 && pulled > 0,
        "{pulled} of {levels_n} levels pulled"
    );
    assert_eq!(charged, auto_ps, "what the levels charged moved the clock");
}

/// The modeled picoseconds a fused 16-source BFS and SSSP charge with
/// `Aᵀ` resident (priced) and without it (pushed).
const PRICED_BFS_PS: u64 = 318_290_222;
const PRICED_SSSP_PS: u64 = 2_682_812_433;
const PUSHED_BFS_PS: u64 = 931_868_444;
const PUSHED_SSSP_PS: u64 = 2_991_571_097;

/// A fused level (docs/adr/0015). With `Aᵀ` resident, every level of a
/// 16-source BFS and SSSP records both prices and is charged the cheaper,
/// and the device clock moves by exactly what the levels were charged
/// (0.318 and 2.683 ms, against 0.932 and 2.992 pushed). Without it no
/// level is priced and every level is charged its push, the clock reading
/// what it read before fused levels were priced.
#[test]
fn cuda_fused_levels_record_and_charge_the_cheaper_price() {
    let (adj, w, _) = traversal_graph(&symmetrize(&Rmat::new(12, 8).seed(1).generate()));
    let hubs = top_degree(&adj, 16);
    // the modeled picoseconds one fused solve charges a zeroed device,
    // and its level labels
    let solve = |ctx: &Context<CudaBackend>, bfs: bool| -> (u64, Vec<String>) {
        ctx.reset_gpu_stats();
        ctx.clear_trace();
        if bfs {
            bfs_levels_multi(ctx, &adj, &hubs).unwrap();
        } else {
            sssp_multi(ctx, &w, &hubs).unwrap();
        }
        let spans = ctx.trace().spans;
        let levels = spans.iter().filter(|sp| sp.fields.op == "level");
        let labels = levels.map(|sp| sp.fields.op_label.clone()).collect();
        (ctx.gpu_stats().modeled_ps, labels)
    };

    let resident = Context::cuda_default().with_trace_mode(TraceMode::Summary);
    resident.seed_symmetric_transpose(&adj);
    resident.seed_symmetric_transpose(&w);
    // the priced clock, pinned as `model_identity` pins its steps: a
    // change to the fused pull's model moves it, on purpose or not
    for (bfs, priced) in [(true, PRICED_BFS_PS), (false, PRICED_SSSP_PS)] {
        let (ps, labels) = solve(&resident, bfs);
        assert_eq!(ps, priced, "bfs={bfs}");
        let (mut charged, mut pulled) = (0u64, 0);
        for label in &labels {
            charged += charged_price(label);
            pulled += label.contains("device=pull") as usize;
        }
        assert!(
            labels.len() > 2 && pulled > 0,
            "bfs={bfs}: {pulled} of {} levels pulled",
            labels.len()
        );
        assert_eq!(charged, ps, "bfs={bfs}: what the levels charged");
    }

    let cold = Context::cuda_default().with_trace_mode(TraceMode::Summary);
    for (bfs, pushed) in [(true, PUSHED_BFS_PS), (false, PUSHED_SSSP_PS)] {
        let (ps, labels) = solve(&cold, bfs);
        assert!(!labels.is_empty());
        for label in &labels {
            assert!(device_record(label).is_none(), "{label}");
        }
        assert_eq!(ps, pushed, "bfs={bfs}");
    }
}
