//! Property tests of the masked Gustavson kernel: `mxm_masked` against a
//! dense reference fold, and the parallel backend's row-split of the same
//! kernel against the sequential call, at 1, 2 and 4 threads.
//!
//! The kernel folds a block of rows behind a branch or with selects, by the
//! hit share it has seen; the densities below put both loops to work (a
//! dense mask over more than one block of rows switches to selects).
//! Values compare through `bits`, so `-0.0` differs from `0.0` and a `NaN`
//! equals itself.

use std::sync::OnceLock;

use gbtl_algebra::{BinaryOp, MinPlus, Monoid, PlusPair, PlusTimes, Scalar, Semiring};
use gbtl_backend_par::ThreadPool;
use gbtl_backend_seq::mxm_masked;
use gbtl_sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Stored-entry probabilities the generators pick from: sparse enough for
/// empty rows and a branch-loop hit share, dense enough for selects.
const DENSITIES: [f64; 3] = [0.03, 0.15, 0.5];

fn csr<T: Scalar>(coo: CooMatrix<T>) -> CsrMatrix<T> {
    CsrMatrix::from_coo(coo, |x, _| x)
}

/// A random `m×n` matrix, each entry stored with probability `density`.
fn random<T: Scalar>(
    rng: &mut StdRng,
    (m, n): (usize, usize),
    density: f64,
    mut val: impl FnMut(&mut StdRng) -> T,
) -> CsrMatrix<T> {
    let mut coo = CooMatrix::new(m, n);
    for i in 0..m {
        for j in 0..n {
            if rng.gen_bool(density) {
                let v = val(rng);
                coo.push(i, j, v);
            }
        }
    }
    csr(coo)
}

/// A mask with every 7th row empty and its last column full — a column no
/// product reaches, since [`operands`] leaves `B`'s last column empty.
fn mask(rng: &mut StdRng, (m, n): (usize, usize), density: f64) -> CsrMatrix<bool> {
    let mut coo = CooMatrix::new(m, n);
    for i in (0..m).filter(|i| i % 7 != 3) {
        for j in 0..n {
            if j + 1 == n || rng.gen_bool(density) {
                coo.push(i, j, true);
            }
        }
    }
    csr(coo)
}

/// `(M, A, B)` of an `m×k · k×n` product from one seed.
#[allow(clippy::type_complexity)]
fn operands<D1: Scalar, D2: Scalar>(
    seed: u64,
    (m, k, n): (usize, usize, usize),
    [dm, da, db]: [usize; 3],
    mut v1: impl FnMut(&mut StdRng) -> D1,
    mut v2: impl FnMut(&mut StdRng) -> D2,
) -> (CsrMatrix<bool>, CsrMatrix<D1>, CsrMatrix<D2>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random(&mut rng, (m, k), DENSITIES[da], &mut v1);
    // B's last column stays empty
    let b = random(&mut rng, (k, n.max(2) - 1), DENSITIES[db], &mut v2);
    let b = CsrMatrix::from_parts(
        k,
        n,
        b.row_ptr().to_vec(),
        b.col_idx().to_vec(),
        b.vals().to_vec(),
    )
    .expect("same entries, one more column");
    (mask(&mut rng, (m, n), DENSITIES[dm]), a, b)
}

/// `C<M> = A ⊕.⊗ B` one kept position at a time, each fold over ascending
/// `k` — the order the row-wise kernel scans in.
fn dense_reference<T, D1, D2, S>(
    mask: &CsrMatrix<bool>,
    a: &CsrMatrix<D1>,
    b: &CsrMatrix<D2>,
    sr: S,
) -> Vec<(usize, usize, T)>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    let mut out = Vec::new();
    for (i, j, _) in mask.iter() {
        let mut acc: Option<T> = None;
        let (a_cols, a_vals) = a.row(i);
        for (&k, &aik) in a_cols.iter().zip(a_vals) {
            if let Some(bkj) = b.get(k, j) {
                let term = sr.mul().apply(aik, bkj);
                acc = Some(acc.map_or(term, |v| sr.add().apply(v, term)));
            }
        }
        if let Some(v) = acc {
            out.push((i, j, v));
        }
    }
    out
}

fn pools() -> &'static [ThreadPool; 3] {
    static POOLS: OnceLock<[ThreadPool; 3]> = OnceLock::new();
    POOLS.get_or_init(|| [1, 2, 4].map(ThreadPool::with_threads))
}

/// The kernel equals the reference, and every par split equals the kernel.
fn check<T, D1, D2, S>(
    (mask, a, b): (CsrMatrix<bool>, CsrMatrix<D1>, CsrMatrix<D2>),
    sr: S,
    bits: impl Fn(T) -> u64,
) where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    let as_bits = |c: &CsrMatrix<T>| -> Vec<(usize, usize, u64)> {
        c.iter().map(|(i, j, v)| (i, j, bits(v))).collect()
    };
    let seq = mxm_masked(&mask, &a, &b, sr);
    seq.validate().unwrap();
    let want: Vec<_> = dense_reference(&mask, &a, &b, sr)
        .into_iter()
        .map(|(i, j, v)| (i, j, bits(v)))
        .collect();
    assert_eq!(as_bits(&seq), want, "kernel vs dense reference");
    for pool in pools() {
        let par = gbtl_backend_par::mxm_masked(pool, &mask, &a, &b, sr);
        assert_eq!(as_bits(&par), want, "par at {} threads", pool.threads());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plus_times_i64_matches_the_reference(
        seed in 0u64..1_000_000,
        m in 1usize..200, k in 1usize..40, n in 1usize..60,
        dm in 0usize..3, da in 0usize..3, db in 0usize..3,
    ) {
        let ops = operands(seed, (m, k, n), [dm, da, db],
            |r| r.gen_range(-9i64..10), |r| r.gen_range(-9i64..10));
        check(ops, PlusTimes::<i64>::new(), |v| v as u64);
    }

    #[test]
    fn plus_pair_u64_over_boolean_operands_matches_the_reference(
        seed in 0u64..1_000_000,
        m in 1usize..200, k in 1usize..40, n in 1usize..60,
        dm in 0usize..3, da in 0usize..3, db in 0usize..3,
    ) {
        let ops = operands(seed, (m, k, n), [dm, da, db], |_| true, |_| true);
        check(ops, PlusPair::<u64>::new(), |v| v);
    }

    /// A position whose first term is `NaN` or `-0.0` keeps it: seeding
    /// with `min(+∞, NaN)` would give `+∞`.
    #[test]
    fn min_plus_f64_seeds_nan_and_negative_zero_exactly(
        seed in 0u64..1_000_000,
        m in 1usize..200, k in 1usize..40, n in 1usize..60,
        dm in 0usize..3, da in 0usize..3, db in 0usize..3,
    ) {
        const VALUES: [f64; 6] = [-0.0, 0.0, f64::NAN, 1.5, -2.25, 3.0];
        let pick = |r: &mut StdRng| VALUES[r.gen_range(0..VALUES.len())];
        let ops = operands(seed, (m, k, n), [dm, da, db], pick, pick);
        check(ops, MinPlus::<f64>::new(), f64::to_bits);
    }

    /// `Plus<u8>` where the sums outside the mask overflow: column 0 of the
    /// product is 300 ones, masked out; the masked columns sum zeros, and
    /// the last one is reached by no product. The select loop folds column
    /// 0 only as `0 + 1`, discarded, so a debug build must not panic.
    #[test]
    fn plus_u8_outside_the_mask_never_overflows(m in 1usize..150, width in 1usize..12) {
        const K: usize = 300;
        let n = width + 2;
        let (mut a, mut b, mut mask) =
            (CooMatrix::new(m, K), CooMatrix::new(K, n), CooMatrix::new(m, n));
        for i in 0..m {
            (0..K).for_each(|k| a.push(i, k, 1u8));
            if i % 7 != 3 {
                (1..n).for_each(|j| mask.push(i, j, true));
            }
        }
        for k in 0..K {
            b.push(k, 0, 1u8);
            (1..=width).for_each(|j| b.push(k, j, 0u8));
        }
        let sr = PlusTimes::<u8>::new();
        assert_eq!(sr.add().identity(), 0);
        check((csr(mask), csr(a), csr(b)), sr, u64::from);
    }
}
