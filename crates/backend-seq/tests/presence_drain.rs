//! Push `vxm` and Gustavson `mxm` drain their accumulators by presence
//! bits, one summary bit per 64-position word. These properties run them at
//! sizes on both sides of one word (64) and of one summary word (4 096) and
//! compare them with a `BTreeMap` fold in the kernels' scan order: the same
//! positions, ascending, with the same values. Each call is made twice in a
//! row, and after each the pooled words must be back at zero, so a drain
//! that leaves a bit behind fails here in release builds too.

use gbtl_algebra::{BinaryOp, MinPlus, PlusTimes, Scalar, Semiring};
use gbtl_backend_seq::{mxm, vxm};
use gbtl_sparse::{CooMatrix, CsrMatrix, DenseVector, SparseVector, VecMask};
use gbtl_util::workspace;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

const SIZES: [usize; 9] = [0, 1, 63, 64, 65, 4095, 4096, 4097, 8193];

/// Which output positions a row of the test matrix reaches.
#[derive(Clone, Copy, PartialEq)]
enum Reach {
    /// Anywhere in `0..n`.
    Anywhere,
    /// The last summary word's positions only (`≥ 4096` once `n > 4096`).
    LastSummaryWord,
    /// Position `n − 1` only.
    Last,
}

/// An `n × n` matrix whose row `i` reaches as `reach(i)` says, with zero
/// to four entries (at least one outside `Anywhere`) of values from `value`.
fn matrix<T: Scalar>(
    n: usize,
    rng: &mut StdRng,
    reach: impl Fn(usize) -> Reach,
    value: impl Fn(&mut StdRng) -> T,
) -> CsrMatrix<T> {
    let high = (n.max(1) - 1) / 4096 * 4096;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        match reach(i) {
            Reach::Anywhere => {
                for _ in 0..rng.gen_range(0..5usize) {
                    coo.push(i, rng.gen_range(0..n), value(rng));
                }
            }
            Reach::LastSummaryWord => {
                for _ in 0..rng.gen_range(1..5usize) {
                    coo.push(i, rng.gen_range(high..n), value(rng));
                }
            }
            Reach::Last => coo.push(i, n - 1, value(rng)),
        }
    }
    CsrMatrix::from_coo(coo, |a, _| a)
}

/// Rows `0..n` cycle through the three reaches.
fn reach(i: usize) -> Reach {
    [Reach::Anywhere, Reach::LastSummaryWord, Reach::Last][i % 3]
}

/// After a call, every pooled word must be zero again.
fn assert_words_clean() {
    workspace::with_words(0, |words| {
        assert!(words.iter().all(|&w| w == 0), "pooled words left set");
    });
}

/// `uᵀA` folded into a map in `vxm`'s scan order, kept positions only.
fn vxm_reference<T: Scalar, S: Semiring<T>>(
    u: &SparseVector<T>,
    a: &CsrMatrix<T>,
    sr: S,
    keeps: impl Fn(usize) -> bool,
) -> BTreeMap<usize, T> {
    let mut want = BTreeMap::new();
    for (k, uk) in u.iter() {
        let (cols, vals) = a.row(k);
        for (&j, &akj) in cols.iter().zip(vals) {
            if keeps(j) {
                let term = sr.mul().apply(uk, akj);
                want.entry(j)
                    .and_modify(|v| *v = sr.add().apply(*v, term))
                    .or_insert(term);
            }
        }
    }
    want
}

/// `vxm` against the reference over four frontiers (a random subset of
/// rows, the rows that reach only the last summary word, the rows that
/// reach only `n − 1`, every row), each unmasked, masked and complemented.
fn check_vxm<T: Scalar, S: Semiring<T>>(
    n: usize,
    seed: u64,
    sr: S,
    value: impl Fn(&mut StdRng) -> T,
    bits: impl Fn(T) -> u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = matrix(n, &mut rng, reach, &value);
    let mut visited = DenseVector::new(n);
    for i in 0..n {
        if rng.gen_bool(0.5) {
            visited.set(i, true);
        }
    }
    let sample: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.1)).collect();
    let frontiers: [&dyn Fn(usize) -> bool; 4] = [
        &|i| sample[i],
        &|i| reach(i) == Reach::LastSummaryWord,
        &|i| reach(i) == Reach::Last,
        &|_| true,
    ];
    for picks in frontiers {
        let mut u = SparseVector::new(n);
        for i in (0..n).filter(|&i| picks(i)) {
            u.set(i, value(&mut rng));
        }
        for complement in [None, Some(false), Some(true)] {
            let mask = complement.map(|c| VecMask::new(&visited, c));
            let want = vxm_reference(&u, &a, sr, |j| mask.is_none_or(|m| m.keeps(j)));
            let want: Vec<(usize, u64)> = want.into_iter().map(|(j, v)| (j, bits(v))).collect();
            for call in 0..2 {
                let got = vxm(&u, &a, sr, mask);
                assert_words_clean();
                let got: Vec<(usize, u64)> = got.iter().map(|(j, v)| (j, bits(v))).collect();
                assert_eq!(got, want, "n {n}, mask {complement:?}, call {call}");
            }
        }
    }
}

/// `A·A` against a per-row map folded in `mxm`'s scan order.
fn check_mxm<T: Scalar, S: Semiring<T>>(
    n: usize,
    seed: u64,
    sr: S,
    value: impl Fn(&mut StdRng) -> T,
    bits: impl Fn(T) -> u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = matrix(n, &mut rng, reach, value);
    for call in 0..2 {
        let c = mxm(&a, &a, sr);
        assert_words_clean();
        c.validate().unwrap();
        for i in 0..n {
            let mut want = BTreeMap::new();
            let (a_cols, a_vals) = a.row(i);
            for (&k, &aik) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = a.row(k);
                for (&j, &bkj) in b_cols.iter().zip(b_vals) {
                    let term = sr.mul().apply(aik, bkj);
                    want.entry(j)
                        .and_modify(|v| *v = sr.add().apply(*v, term))
                        .or_insert(term);
                }
            }
            let want: Vec<(usize, u64)> = want.into_iter().map(|(j, v)| (j, bits(v))).collect();
            let (cols, vals) = c.row(i);
            let got: Vec<(usize, u64)> =
                cols.iter().zip(vals).map(|(&j, &v)| (j, bits(v))).collect();
            assert_eq!(got, want, "n {n}, row {i}, call {call}");
        }
    }
}

/// Signed integers that leave `PlusTimes` far from overflow.
fn small_i64(rng: &mut StdRng) -> i64 {
    rng.gen_range(-9i64..10)
}

/// `f64`s with `-0.0` among them: a fold out of scan order, or a first term
/// seeded as `0.0 + t`, changes the bits.
fn signed_f64(rng: &mut StdRng) -> f64 {
    [-0.0, 0.0, 1.5, -2.25, 3.0][rng.gen_range(0..5usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn vxm_drains_like_a_btreemap_past_one_summary_word(seed in any::<u64>()) {
        for n in SIZES {
            check_vxm(n, seed, PlusTimes::<i64>::new(), small_i64, |v| v as u64);
            check_vxm(n, seed, MinPlus::<u32>::new(), |r| r.gen_range(0u32..100), u64::from);
            check_vxm(n, seed, PlusTimes::<f64>::new(), signed_f64, f64::to_bits);
        }
    }

    #[test]
    fn mxm_drains_like_a_btreemap_past_one_summary_word(seed in any::<u64>()) {
        for n in SIZES {
            check_mxm(n, seed, PlusTimes::<i64>::new(), small_i64, |v| v as u64);
            check_mxm(n, seed, PlusTimes::<f64>::new(), signed_f64, f64::to_bits);
        }
    }
}
