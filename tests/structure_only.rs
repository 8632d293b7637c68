//! Structure-only operands: a boolean adjacency multiplied against typed
//! vectors and matrices as it stands must give, bit for bit, what the same
//! product gives over the materialized typed copy (`pattern_matrix`) — for
//! every mask / complement / accumulator / replace setting, on every
//! backend, `f64` included (`second(1, x) ≡ 1.0·x`). On top of the ops: the
//! triangle count's `L·L` counts what the parent's `L·Lᵀ` over typed copies
//! counted, under any labelling; PageRank, CC, MIS, `bfs_parents`, BC and the
//! triangle count return what they returned before the typed copies were
//! removed (checksums recorded at the parent commit); and a served graph
//! stays pull-eligible whatever else the server computes and loads.

use gbtl::algebra::{
    MinFirst, MinSecond, Plus, PlusFirst, PlusMonoid, PlusPair, PlusSecond, PlusTimes, Scalar,
    Second, TriL,
};
use gbtl::algorithms::pagerank::PageRankOptions;
use gbtl::algorithms::{
    adjacency, betweenness_centrality, bfs_parents, connected_components, maximal_independent_set,
    pagerank, pattern_matrix, triangle_count,
};
use gbtl::graphgen::{erdos_renyi, karate_club, symmetrize, Rmat};
use gbtl::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Operands of one differential case, all drawn from one seed.
struct Case {
    /// The structure-only operand.
    a: Matrix<bool>,
    /// A second boolean matrix (mxm's right operand, and its mask).
    b: Matrix<bool>,
    /// A typed right operand for mxm.
    b_vals: Matrix<u64>,
    u: Vector<f64>,
    old: Vector<f64>,
    ids: Vector<u64>,
    old_ids: Vector<u64>,
    mask: Vector<bool>,
    old_mat: Matrix<u64>,
}

fn case(n: usize, seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let bools = |rng: &mut StdRng, one_in: u32| {
        let mut t = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if rng.gen_range(0..one_in) == 0 {
                    // structural: a stored `false` is an entry like any other
                    t.push((i, j, rng.gen_range(0..4) != 0));
                }
            }
        }
        Matrix::build(n, n, t, Second::new()).unwrap()
    };
    let (a, b) = (bools(&mut rng, 3), bools(&mut rng, 3));
    let typed = |rng: &mut StdRng, lo: u64| {
        let mut t = Vec::new();
        for p in 0..n * n {
            if rng.gen_range(0..3) == 0 {
                t.push((p / n, p % n, rng.gen_range(lo..lo + 40)));
            }
        }
        Matrix::build(n, n, t, Second::new()).unwrap()
    };
    let (b_vals, old_mat) = (typed(&mut rng, 1), typed(&mut rng, 1000));
    let (mut u, mut old, mut ids, mut old_ids, mut mask) = (
        Vector::new(n),
        Vector::new(n),
        Vector::new(n),
        Vector::new(n),
        Vector::new(n),
    );
    for i in 0..n {
        if rng.gen_range(0..3) != 0 {
            // values whose sums round: the accumulation order must match too
            u.set(i, rng.gen_range(1..1000) as f64 / 7.0);
            ids.set(i, rng.gen_range(1..1000u64));
        }
        if rng.gen_range(0..3) == 0 {
            old.set(i, rng.gen_range(1..1000) as f64 / 3.0);
            old_ids.set(i, rng.gen_range(5000..6000u64));
        }
        if rng.gen_range(0..2) == 0 {
            mask.set(i, rng.gen_range(0..2) == 0);
        }
    }
    Case {
        a,
        b,
        b_vals,
        u,
        old,
        ids,
        old_ids,
        mask,
        old_mat,
    }
}

/// Every (mask, complement, accumulate, replace) setting.
fn settings() -> impl Iterator<Item = (bool, Descriptor, bool)> {
    let masks = [(false, false), (true, false), (true, true)];
    masks.into_iter().flat_map(|(masked, complement)| {
        [(false, false), (false, true), (true, false), (true, true)]
            .into_iter()
            .map(move |(accum, replace)| {
                let mut desc = Descriptor::new();
                if complement {
                    desc = desc.complement_mask();
                }
                if replace {
                    desc = desc.replace();
                }
                (masked, desc, accum)
            })
    })
}

fn bits(v: &Vector<f64>) -> Vec<(usize, u64)> {
    v.iter().map(|(i, x)| (i, x.to_bits())).collect()
}

fn ops_agree<B: Backend>(ctx: &Context<B>, c: &Case) {
    let be = ctx.backend_name();
    let ones_f = pattern_matrix(ctx, &c.a, 1.0f64);
    let ones_u = pattern_matrix(ctx, &c.a, 1u64);
    let b_ones = pattern_matrix(ctx, &c.b, 1u64);
    let plus_f = |on: bool| on.then(Plus::<f64>::new);
    let plus_u = |on: bool| on.then(Plus::<u64>::new);
    for (masked, desc, accum) in settings() {
        let mask = masked.then_some(&c.mask);
        let mmask = masked.then_some(&c.b);
        let what = format!("{be} masked={masked} {desc:?} accum={accum}");
        for transposed in [false, true] {
            let desc = if transposed { desc.transpose_a() } else { desc };
            // mxv, f64: (+, second) over bool ≡ (+, ×) over the ones
            let (mut got, mut want) = (c.old.clone(), c.old.clone());
            ctx.mxv(
                &mut got,
                mask,
                plus_f(accum),
                PlusSecond::new(),
                &c.a,
                &c.u,
                &desc,
            )
            .unwrap();
            ctx.mxv(
                &mut want,
                mask,
                plus_f(accum),
                PlusTimes::new(),
                &ones_f,
                &c.u,
                &desc,
            )
            .unwrap();
            assert_eq!(bits(&got), bits(&want), "mxv f64 {what}");
            // vxm, f64: (+, first) over bool ≡ (+, ×) over the ones
            let (mut got, mut want) = (c.old.clone(), c.old.clone());
            ctx.vxm(
                &mut got,
                mask,
                plus_f(accum),
                PlusFirst::new(),
                &c.u,
                &c.a,
                &desc,
            )
            .unwrap();
            ctx.vxm(
                &mut want,
                mask,
                plus_f(accum),
                PlusTimes::new(),
                &c.u,
                &ones_f,
                &desc,
            )
            .unwrap();
            assert_eq!(bits(&got), bits(&want), "vxm f64 {what}");
            // u64 labels: (min, second) pulled, (min, first) pushed
            let (mut got, mut want) = (c.old_ids.clone(), c.old_ids.clone());
            ctx.mxv(
                &mut got,
                mask,
                plus_u(accum),
                MinSecond::new(),
                &c.a,
                &c.ids,
                &desc,
            )
            .unwrap();
            ctx.mxv(
                &mut want,
                mask,
                plus_u(accum),
                MinSecond::new(),
                &ones_u,
                &c.ids,
                &desc,
            )
            .unwrap();
            assert_eq!(got, want, "mxv u64 {what}");
            let (mut got, mut want) = (c.old_ids.clone(), c.old_ids.clone());
            ctx.vxm(
                &mut got,
                mask,
                plus_u(accum),
                MinFirst::new(),
                &c.ids,
                &c.a,
                &desc,
            )
            .unwrap();
            ctx.vxm(
                &mut want,
                mask,
                plus_u(accum),
                MinFirst::new(),
                &c.ids,
                &ones_u,
                &desc,
            )
            .unwrap();
            assert_eq!(got, want, "vxm u64 {what}");
        }
        // mxm: (+, pair) over two boolean operands ≡ (+, ×) over their ones
        let (mut got, mut want) = (c.old_mat.clone(), c.old_mat.clone());
        ctx.mxm(
            &mut got,
            mmask,
            plus_u(accum),
            PlusPair::<u64>::new(),
            &c.a,
            &c.b,
            &desc,
        )
        .unwrap();
        ctx.mxm(
            &mut want,
            mmask,
            plus_u(accum),
            PlusTimes::new(),
            &ones_u,
            &b_ones,
            &desc,
        )
        .unwrap();
        assert_eq!(got, want, "mxm pair {what}");
        // mxm: a boolean left operand against typed values on the right
        let (mut got, mut want) = (c.old_mat.clone(), c.old_mat.clone());
        ctx.mxm(
            &mut got,
            mmask,
            plus_u(accum),
            PlusSecond::new(),
            &c.a,
            &c.b_vals,
            &desc,
        )
        .unwrap();
        ctx.mxm(
            &mut want,
            mmask,
            plus_u(accum),
            PlusTimes::new(),
            &ones_u,
            &c.b_vals,
            &desc,
        )
        .unwrap();
        assert_eq!(got, want, "mxm second {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn products_over_the_boolean_operand_equal_those_over_its_typed_copy(
        seed in 0u64..10_000,
        n in 1usize..20,
    ) {
        let c = case(n, seed);
        ops_agree(&Context::sequential(), &c);
        ops_agree(&Context::parallel_with_threads(3), &c);
        ops_agree(&Context::cuda_default(), &c);
    }

    #[test]
    fn triangles_are_cohens_on_every_backend(seed in 0u64..1_000) {
        let a = adjacency(symmetrize(&Rmat::new(6, 5).seed(seed).generate()));
        let want = cohen_triangles(&a);
        prop_assert_eq!(triangle_count(&Context::sequential(), &a).unwrap(), want);
        let par = Context::parallel_with_threads(3);
        prop_assert_eq!(triangle_count(&par, &a).unwrap(), want);
        prop_assert_eq!(triangle_count(&Context::cuda_default(), &a).unwrap(), want);
    }
}

/// The parent commit's triangle count: Cohen's `C<L> = L·Lᵀ` on `(+, pair)`
/// over a typed copy of `L`.
fn cohen_triangles(a: &Matrix<bool>) -> u64 {
    let ctx = Context::sequential();
    let l_bool = ctx.select_mat_new(TriL, a);
    let l = pattern_matrix(&ctx, &l_bool, 1u64);
    let mut c = Matrix::new(a.nrows(), a.ncols());
    ctx.mxm(
        &mut c,
        Some(&l_bool),
        no_accum(),
        PlusPair::<u64>::new(),
        &l,
        &l,
        &Descriptor::new().transpose_b(),
    )
    .unwrap();
    ctx.reduce_mat_scalar(PlusMonoid::<u64>::new(), &c)
        .unwrap_or(0)
}

/// `a` with its vertices renamed so that ids follow `order` (`order[new] =
/// old`).
fn relabel(a: &Matrix<bool>, order: &[usize]) -> Matrix<bool> {
    let mut new_id = vec![0usize; order.len()];
    for (new, &old) in order.iter().enumerate() {
        new_id[old] = new;
    }
    let triples = a.iter().map(|(i, j, v)| (new_id[i], new_id[j], v));
    Matrix::build(a.nrows(), a.ncols(), triples, Second::new()).unwrap()
}

#[test]
fn the_triangle_count_does_not_depend_on_the_labelling() {
    // `L·L` counts a triangle at its middle vertex, so which wedges it
    // walks follows the ids: hubs first, hubs last and the generator's own
    // order are three different products with one answer.
    let rmat = adjacency(symmetrize(&Rmat::new(10, 8).seed(1).generate()));
    let mut hubs_last: Vec<usize> = (0..rmat.nrows()).collect();
    hubs_last.sort_by_key(|&v| rmat.csr().row_nnz(v));
    let hubs_first: Vec<usize> = hubs_last.iter().rev().copied().collect();
    let want = cohen_triangles(&rmat);
    assert!(want > 0);
    for g in [
        &rmat,
        &relabel(&rmat, &hubs_last),
        &relabel(&rmat, &hubs_first),
    ] {
        assert_eq!(cohen_triangles(g), want);
        assert_eq!(triangle_count(&Context::sequential(), g).unwrap(), want);
        let par = Context::parallel_with_threads(2);
        assert_eq!(triangle_count(&par, g).unwrap(), want);
        assert_eq!(triangle_count(&Context::cuda_default(), g).unwrap(), want);
    }
}

/// FNV-1a 64 over `(len, (index, bits)…)` — gbtl-serve's response checksum.
fn fnv<T: Scalar>(v: &Vector<T>, to_bits: impl Fn(T) -> u64) -> u64 {
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

/// Triangle count and the checksums of 20-iteration PageRank, CC, MIS (seed
/// 7), `bfs_parents` from 0 and BC from {0, 1, 2}.
fn answers<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>) -> [u64; 6] {
    let opts = PageRankOptions {
        damping: 0.85,
        tolerance: 0.0,
        max_iters: 20,
    };
    [
        triangle_count(ctx, a).unwrap(),
        fnv(&pagerank(ctx, a, opts).unwrap().0, f64::to_bits),
        fnv(&connected_components(ctx, a).unwrap(), |v| v),
        fnv(&maximal_independent_set(ctx, a, 7).unwrap(), u64::from),
        fnv(&bfs_parents(ctx, a, 0).unwrap(), |v| v),
        fnv(
            &betweenness_centrality(ctx, a, &[0, 1, 2]).unwrap(),
            f64::to_bits,
        ),
    ]
}

#[test]
fn answers_are_the_parent_commits_bit_for_bit() {
    // recorded at bfc6281 (PR 14), where seq, par and cuda agreed on each
    let recorded = [
        (
            adjacency(symmetrize(&Rmat::new(10, 8).seed(1).generate())),
            [
                0x5dbc,
                0x904a4e9f95da4942,
                0xd3159965a38cbbf8,
                0x4626ccc4315a4079,
                0xedb2e5ccea207578,
                0xd436e4ae843c5ef3,
            ],
        ),
        (
            adjacency(symmetrize(&erdos_renyi(1 << 10, (1 << 10) * 8, 2))),
            [
                0x2bb,
                0xf50d61cc9d9906ea,
                0xdf2cc9ed2f0a2b59,
                0x4d4751301faf00b3,
                0x19742d708c08d8b0,
                0x335adf6907cb2f0d,
            ],
        ),
        (
            adjacency(karate_club()),
            [
                0x2d,
                0xe6cbfd78d3682866,
                0xa27feb9bf858f526,
                0xe422291ad9942394,
                0x3b6a6ca47095add2,
                0x280214852a1867d5,
            ],
        ),
    ];
    for (a, want) in &recorded {
        assert_eq!(&answers(&Context::sequential(), a), want, "seq");
        assert_eq!(&answers(&Context::parallel_with_threads(3), a), want, "par");
        assert_eq!(&answers(&Context::cuda_default(), a), want, "cuda");
    }
}

/// PageRank on directed rmats, whose sinks (no out-edge) and isolated
/// vertices (no edge at all) carry the dangling mass: the 20-iteration rank
/// checksum on every backend and cuda-sim's modeled seconds, as `f64` bits.
/// Recorded before the rank operand held a value at dangling positions,
/// when those positions were left absent.
#[test]
fn pagerank_with_sinks_keeps_its_ranks_and_its_device_charge() {
    let opts = PageRankOptions {
        damping: 0.85,
        tolerance: 0.0,
        max_iters: 20,
    };
    let recorded = [
        (10, 4, 5, 0xb481_f03f_0375_7ca8u64, 0x3f2e_fb6e_be5d_f515u64),
        (12, 8, 9, 0xf2b0_1ff7_9a0a_1eb9, 0x3f42_918a_7233_5b93),
    ];
    for (scale, edge_factor, seed, want_ranks, want_modeled) in recorded {
        let a = adjacency(Rmat::new(scale, edge_factor).seed(seed).generate());
        let (csr, at) = (a.csr(), a.csr().transpose());
        let dangling: Vec<usize> = (0..a.nrows()).filter(|&i| csr.row_nnz(i) == 0).collect();
        assert!(dangling.iter().any(|&i| at.row_nnz(i) > 0), "a sink");
        assert!(
            dangling.iter().any(|&i| at.row_nnz(i) == 0),
            "an isolated vertex"
        );
        let ranks = |r: Vector<f64>| fnv(&r, f64::to_bits);
        let seq = pagerank(&Context::sequential(), &a, opts).unwrap().0;
        assert_eq!(ranks(seq), want_ranks, "seq, rmat{scale}");
        let par = pagerank(&Context::parallel_with_threads(3), &a, opts)
            .unwrap()
            .0;
        assert_eq!(ranks(par), want_ranks, "par, rmat{scale}");
        let cuda = Context::cuda_default();
        assert_eq!(
            ranks(pagerank(&cuda, &a, opts).unwrap().0),
            want_ranks,
            "cuda"
        );
        let modeled = cuda.gpu_stats().modeled_time_s;
        assert_eq!(
            modeled.to_bits(),
            want_modeled,
            "cuda modeled {modeled} s, rmat{scale}"
        );
    }
}

#[test]
fn a_solve_on_a_prewarmed_graph_puts_nothing_in_the_transpose_cache() {
    let a = adjacency(symmetrize(&Rmat::new(8, 6).seed(3).generate()));
    let ctx = Context::sequential();
    ctx.seed_symmetric_transpose(&a);
    let before = ctx.transpose_cache_stats();
    let _ = answers(&ctx, &a);
    let after = ctx.transpose_cache_stats();
    assert_eq!(
        (after.misses, after.entries),
        (before.misses, before.entries)
    );
    assert!(
        after.hits > before.hits,
        "PageRank pulls over the seeded Aᵀ"
    );
}

#[test]
fn a_served_graph_stays_pull_eligible_whatever_the_server_computes_and_loads() {
    use gbtl_serve::{start, Client, ServerConfig};
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_capacity: 0, // every query computes
        preload: vec![("served".into(), "rmat:12:8:1".into())],
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    let mut ok = |line: String| {
        let v = c.request_json(&line).unwrap();
        assert_eq!(v.bool_field("ok"), Some(true), "{line}: {v:?}");
        v
    };
    // more computed transposes than the default cache holds, on all
    // backends, then more loads than it holds
    for i in 0..16 {
        let (backend, algo) = (["seq", "par", "cuda"][i % 3], ["pagerank", "cc"][i / 8]);
        ok(format!(
            "{{\"op\":\"query\",\"graph\":\"served\",\"algo\":\"{algo}\",\"backend\":\"{backend}\"}}"
        ));
    }
    for i in 0..10 {
        ok(format!(
            "{{\"op\":\"load\",\"name\":\"scratch{}\",\"spec\":\"rmat:7:4:{i}\"}}",
            i % 5
        ));
    }
    let stats = ok("{\"op\":\"stats\"}".into());
    let cache = stats.get("stats").unwrap().get("transpose_cache").unwrap();
    assert_eq!(cache.u64_field("misses"), Some(0), "nothing was transposed");
    // served adj + weights, five live scratch graphs' adj + weights: the
    // five replaced generations' entries went with their matrices
    assert_eq!(cache.u64_field("entries"), Some(12), "{cache:?}");
    for backend in ["seq", "par", "cuda"] {
        let pulls = |v: &gbtl::util::json::Value| {
            let d = v.get("stats").unwrap().get("direction").unwrap();
            d.u64_field("pull_levels").unwrap()
        };
        let before = pulls(&ok("{\"op\":\"stats\"}".into()));
        ok(format!(
            "{{\"op\":\"query\",\"graph\":\"served\",\"algo\":\"bfs\",\"source\":0,\
             \"backend\":\"{backend}\"}}"
        ));
        let after = pulls(&ok("{\"op\":\"stats\"}".into()));
        assert!(after > before, "{backend}: Auto never pulled");
    }
    handle.shutdown_and_join();
}
