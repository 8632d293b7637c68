//! The load path, bit for bit: `build`'s duplicate contract on every
//! backend, and FNV-1a pins of what the generators and CSR construction
//! produce for the graphs the benchmark and the server load.
//!
//! Contract: `build` folds the values of one coordinate left to right in
//! input order (`dup(dup(v0, v1), v2)` for input-ordered `v0, v1, v2`) — the
//! order cuda-sim's stable key sort + reduce-by-key gives, so seq, par and
//! cuda-sim agree bit for bit even for a non-commutative `dup` or `f64`
//! addition. The pins were recorded before the counting-sort `build` and the
//! branch-free RMAT generator replaced their predecessors; any change to
//! an edge list, a CSR array or a weight shows up here.

use std::collections::BTreeMap;

use gbtl::algebra::{BinaryOp, First, Minus, Plus, Scalar, Second};
use gbtl::algorithms::adjacency;
use gbtl::graphgen::{erdos_renyi, grid_2d, karate_club, symmetrize, Rmat};
use gbtl::prelude::*;
use gbtl::sparse::{CooMatrix, CsrMatrix};
use gbtl::util::hash::{fnv1a_fold, FNV_OFFSET};
use gbtl_serve::catalog::{Catalog, GraphSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// FNV-1a over 64-bit little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    fn word(&mut self, w: u64) {
        self.0 = fnv1a_fold(self.0, &w.to_le_bytes());
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
}

/// Shape and coordinates of an edge list, in generation order.
fn edges_digest(coo: &CooMatrix<bool>) -> u64 {
    let (rows, cols, vals) = coo.triples();
    assert!(vals.iter().all(|&v| v));
    let mut d = Digest::new();
    d.words([coo.nrows() as u64, coo.ncols() as u64, coo.nnz() as u64]);
    d.words(rows.iter().map(|&r| r as u64));
    d.words(cols.iter().map(|&c| c as u64));
    d.0
}

/// Shape and the three CSR arrays.
fn csr_digest<T: Scalar>(csr: &CsrMatrix<T>, bits: impl Fn(T) -> u64) -> u64 {
    let mut d = Digest::new();
    d.words([csr.nrows() as u64, csr.ncols() as u64]);
    d.words(csr.row_ptr().iter().map(|&p| p as u64));
    d.words(csr.col_idx().iter().map(|&c| c as u64));
    d.words(csr.vals().iter().map(|&v| bits(v)));
    d.0
}

/// Compare every `(name, got, want)` and report all mismatches at once.
fn check_pins(pins: &[(String, u64, u64)]) {
    let bad: Vec<String> = pins
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(bad.is_empty(), "load-path pins moved:\n{}", bad.join("\n"));
}

#[test]
fn rmat_edge_lists_match_their_pins() {
    // (scale, edge factor, seed, pin): every RMAT the benchmark builds
    let pinned: [(u32, usize, u64, u64); 8] = [
        (14, 16, 1, 0x4359_2488_cf5f_43d4),
        (13, 8, 1, 0x6cf3_63cb_d6c3_31f5),
        (12, 8, 1, 0xb3e7_e613_d417_db20),
        (12, 8, 9, 0x20c8_34d2_1e73_648c),
        (11, 8, 1, 0x3ed9_3d3b_4b86_de00),
        (13, 8, 11, 0x768a_2aaf_81ad_586e),
        (12, 8, 12, 0x5bfc_d116_6ccf_7405),
        (10, 8, 2, 0x9fac_112a_7b3f_1212),
    ];
    let mut pins: Vec<(String, u64, u64)> = pinned
        .iter()
        .map(|&(scale, ef, seed, want)| {
            let coo = Rmat::new(scale, ef).seed(seed).generate();
            (
                format!("rmat {scale}/{ef}/{seed}"),
                edges_digest(&coo),
                want,
            )
        })
        .collect();
    let quiet = Rmat::new(11, 8).seed(3).noise(0.0).generate();
    pins.push((
        "rmat 11/8/3 noise 0".into(),
        edges_digest(&quiet),
        0x441e_21ea_43a0_413a,
    ));
    let custom = Rmat::new(11, 8)
        .seed(4)
        .probabilities(0.45, 0.25, 0.15)
        .generate();
    pins.push((
        "rmat 11/8/4 a.45 b.25 c.15".into(),
        edges_digest(&custom),
        0x002b_8bd8_3368_27d7,
    ));
    let uniform = Rmat::new(10, 4)
        .seed(5)
        .probabilities(0.25, 0.25, 0.25)
        .noise(0.0)
        .generate();
    pins.push((
        "rmat 10/4/5 uniform noise 0".into(),
        edges_digest(&uniform),
        0xdbd4_317f_f213_cfba,
    ));
    check_pins(&pins);
}

#[test]
fn erdos_renyi_edge_lists_match_their_pins() {
    // (n, edges, seed, pin): er13 and er11 of the library workloads and
    // shard-burst's er12
    let pinned: [(usize, usize, u64, u64); 3] = [
        (8192, 65536, 2, 0x0f7d_1f83_1d21_e2e4),
        (2048, 16384, 2, 0xcbec_71f3_aef7_e454),
        (4096, 32768, 14, 0xd6f2_fa6c_2d82_2949),
    ];
    let pins: Vec<(String, u64, u64)> = pinned
        .iter()
        .map(|&(n, m, seed, want)| {
            let coo = erdos_renyi(n, m, seed);
            (format!("er {n}/{m}/{seed}"), edges_digest(&coo), want)
        })
        .collect();
    check_pins(&pins);
}

#[test]
fn adjacency_and_catalog_csrs_match_their_pins() {
    let bool_bits = |v: bool| u64::from(v);
    let mut pins = Vec::new();
    // the lib-traverse graph: the largest symmetrized COO the benchmark sorts
    let rmat14 = adjacency(symmetrize(&Rmat::new(14, 16).seed(1).generate()));
    pins.push((
        "adjacency rmat 14/16/1".to_string(),
        csr_digest(rmat14.csr(), bool_bits),
        0x99fd_be3d_4c21_cb88,
    ));

    // (spec, the same graph's edge list, adjacency pin, weights pin): the
    // catalog's adjacency must equal `adjacency` of the edge list
    let cat = Catalog::new();
    for (spec, coo, adj_want, weights_want) in [
        (
            "rmat:12:8:9",
            symmetrize(&Rmat::new(12, 8).seed(9).generate()),
            0xff96_3e74_ab55_aff2,
            0xe67d_4032_7e71_c572,
        ),
        (
            "er:4096:32768:14",
            symmetrize(&erdos_renyi(4096, 32768, 14)),
            0xbb0c_421d_4fb5_970c,
            0xd854_8e2e_cc7e_fe4c,
        ),
        (
            "grid:48",
            grid_2d(48, 48),
            0x6232_8856_7022_5716,
            0x001b_3919_73a3_8c16,
        ),
        // recorded before the catalog built its adjacency straight from
        // the edge list with `CsrMatrix::symmetric_pattern`
        (
            "rmat:13:8:11",
            symmetrize(&Rmat::new(13, 8).seed(11).generate()),
            0xf68c_76ec_2006_bb5c,
            0xed70_4cfa_cab2_df7c,
        ),
        (
            "grid:64",
            grid_2d(64, 64),
            0x3665_2ce6_a95c_f2bd,
            0x3972_11a6_a9b7_4ddd,
        ),
        (
            "karate",
            symmetrize(&karate_club()),
            0xd7d3_5649_eed4_5a01,
            0xd85c_e93e_4c32_58e1,
        ),
    ] {
        pins.push((
            format!("adjacency {spec}"),
            csr_digest(adjacency(coo).csr(), bool_bits),
            adj_want,
        ));
        let e = cat.load("g", &GraphSpec::parse(spec).unwrap()).unwrap();
        pins.push((
            format!("catalog {spec} adj"),
            csr_digest(e.adj.csr(), bool_bits),
            adj_want,
        ));
        pins.push((
            format!("catalog {spec} weights"),
            csr_digest(e.weights.csr(), u64::from),
            weights_want,
        ));
    }
    check_pins(&pins);
}

/// Every entry point of `build`, each on its own backend.
struct EntryPoints {
    seq: Context<SeqBackend>,
    par: Context<ParBackend>,
    cuda: Context<CudaBackend>,
}

impl EntryPoints {
    fn new() -> Self {
        EntryPoints {
            seq: Context::sequential(),
            par: Context::parallel_with_threads(2),
            cuda: Context::cuda_default(),
        }
    }

    /// What each entry point builds from `coo`, labelled.
    fn build<T: Scalar, D: BinaryOp<T>>(
        &self,
        coo: &CooMatrix<T>,
        dup: D,
    ) -> [(&'static str, Matrix<T>); 5] {
        let (nrows, ncols) = (coo.nrows(), coo.ncols());
        [
            (
                "Matrix::build",
                Matrix::build(nrows, ncols, coo.iter(), dup).expect("indices in bounds"),
            ),
            ("Matrix::from_coo", Matrix::from_coo(coo.clone(), dup)),
            ("seq", self.seq.matrix_from_coo(coo, dup)),
            ("par(2)", self.par.matrix_from_coo(coo, dup)),
            ("cuda", self.cuda.matrix_from_coo(coo, dup)),
        ]
    }
}

/// The contract's reference: each coordinate's values folded left to right
/// in input order, row-major.
fn fold_in_input_order<T: Scalar>(
    coo: &CooMatrix<T>,
    dup: impl Fn(T, T) -> T,
) -> Vec<(usize, usize, T)> {
    let mut folded: BTreeMap<(usize, usize), T> = BTreeMap::new();
    for (i, j, v) in coo.iter() {
        folded
            .entry((i, j))
            .and_modify(|acc| *acc = dup(*acc, v))
            .or_insert(v);
    }
    folded.into_iter().map(|((i, j), v)| (i, j, v)).collect()
}

/// Build `coo` with `dup` through every entry point and compare each result
/// with the input-order fold by value bits.
fn check_fold<T: Scalar, D: BinaryOp<T>>(
    entry_points: &EntryPoints,
    case: &str,
    coo: &CooMatrix<T>,
    dup: D,
    bits: impl Fn(T) -> u64,
) {
    let want: Vec<(usize, usize, u64)> = fold_in_input_order(coo, |a, b| dup.apply(a, b))
        .into_iter()
        .map(|(i, j, v)| (i, j, bits(v)))
        .collect();
    for (entry, m) in entry_points.build(coo, dup) {
        assert_eq!((m.nrows(), m.ncols()), (coo.nrows(), coo.ncols()));
        m.csr().validate().expect("a valid CSR");
        let got: Vec<(usize, usize, u64)> = m.iter().map(|(i, j, v)| (i, j, bits(v))).collect();
        assert_eq!(got, want, "{case}: {entry} folds out of input order");
    }
}

/// A random COO over a small shape, so most coordinates repeat.
fn random_coo<T: Scalar>(rng: &mut StdRng, value: impl Fn(&mut StdRng) -> T) -> CooMatrix<T> {
    let (nrows, ncols) = (rng.gen_range(4..24), rng.gen_range(4..24));
    let mut coo = CooMatrix::new(nrows, ncols);
    for _ in 0..rng.gen_range(30..230) {
        let (i, j) = (rng.gen_range(0..nrows), rng.gen_range(0..ncols));
        coo.push(i, j, value(&mut *rng));
    }
    coo
}

#[test]
fn duplicates_fold_left_to_right_in_input_order_on_every_backend() {
    let entry_points = EntryPoints::new();
    let int = |rng: &mut StdRng| rng.gen_range(-1000i64..1000);
    // mixed signs, signed zeros and magnitudes where `+` does not associate
    const FLOATS: [f64; 8] = [-0.0, 0.0, 1.0, -1.0, 0.1, -2.5, 1e16, -1e16];
    let float = |rng: &mut StdRng| FLOATS[rng.gen_range(0..FLOATS.len())];
    let int_bits = |v: i64| v as u64;
    for seed in 0..150u64 {
        let case = format!("seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let coo = random_coo(&mut rng, int);
        check_fold(&entry_points, &case, &coo, First::<i64>::new(), int_bits);
        check_fold(&entry_points, &case, &coo, Second::<i64>::new(), int_bits);
        check_fold(&entry_points, &case, &coo, Minus::<i64>::new(), int_bits);
        let coo = random_coo(&mut rng, float);
        check_fold(&entry_points, &case, &coo, Plus::<f64>::new(), f64::to_bits);
    }

    // all duplicates: one coordinate, every value folded into it
    let mut same = CooMatrix::new(3, 5);
    for k in 0..64 {
        same.push(2, 4, FLOATS[k % FLOATS.len()] * (k as f64 + 1.0));
    }
    check_fold(
        &entry_points,
        "all duplicates",
        &same,
        Plus::<f64>::new(),
        f64::to_bits,
    );
    let minus =
        CooMatrix::from_triples(1, 1, vec![0; 6], vec![0; 6], vec![9i64, 4, 1, 7, -3, 2]).unwrap();
    check_fold(
        &entry_points,
        "all duplicates",
        &minus,
        Minus::<i64>::new(),
        int_bits,
    );
    check_fold(
        &entry_points,
        "empty",
        &CooMatrix::<i64>::new(6, 7),
        Minus::new(),
        int_bits,
    );
    check_fold(
        &entry_points,
        "wide",
        &wide_coo(),
        Minus::<i64>::new(),
        int_bits,
    );
}

/// A 3 × 2³⁶ COO with duplicates: far more columns than entries.
fn wide_coo() -> CooMatrix<i64> {
    let ncols = 1usize << 36;
    let mut rng = StdRng::seed_from_u64(36);
    let mut coo = CooMatrix::new(3, ncols);
    let cols: Vec<usize> = (0..40).map(|_| rng.gen_range(0..ncols)).collect();
    for _ in 0..400 {
        let c = cols[rng.gen_range(0..cols.len())];
        coo.push(rng.gen_range(0..3), c, rng.gen_range(0..1000));
    }
    coo
}

#[test]
fn degenerate_and_wide_builds_match_their_pins() {
    // A column-bucket pass over 2³⁶ columns could not allocate; the wide
    // shape must sort each row's entries instead.
    let entry_points = EntryPoints::new();
    let int_bits = |v: i64| v as u64;
    let mut pins = Vec::new();
    for (entry, m) in entry_points.build(&wide_coo(), Plus::new()) {
        pins.push((
            format!("wide {entry}"),
            csr_digest(m.csr(), int_bits),
            0x39ea_1f51_dcf8_db6e,
        ));
    }
    for (nrows, ncols, want) in [
        (0, 0, 0x81d2_3fd7_003c_2305),
        (0, 5, 0xf6db_d2ee_a0d2_a9c0),
        (5, 0, 0x70a6_d3ad_ca1d_4320),
        (4, 4, 0x4486_b776_27c5_5d05),
    ] {
        for (entry, m) in entry_points.build(&CooMatrix::new(nrows, ncols), Plus::new()) {
            pins.push((
                format!("empty {nrows}x{ncols} {entry}"),
                csr_digest(m.csr(), int_bits),
                want,
            ));
        }
    }
    check_pins(&pins);
}
