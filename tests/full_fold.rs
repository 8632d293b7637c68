//! The full fold, end to end: a pull over a fully present operand folds
//! over its plain values, and on every backend that gives what a
//! `row_dot` loop over one `Option` per operand position gives, bit for bit —
//! on values whose sums the identity law does not keep (`-0.0`), on
//! subnormals, infinities and a NaN, unmasked and under a complemented
//! mask, and again on a second pull with other values.

use gbtl::algebra::{BinaryOp, MinSecond, Monoid, PlusSecond, PlusTimes, Scalar, Second, Semiring};
use gbtl::algorithms::adjacency;
use gbtl::backend_seq::{FoldKind, RowFold};
use gbtl::graphgen::{grid_2d, symmetrize, Rmat};
use gbtl::prelude::*;
use gbtl::sparse::{CsrMatrix, DenseVector, VecMask};

/// The test's own `row_dot`: present terms folded in entry order from the
/// first one as it is, stopping at the add monoid's terminal value.
fn row_dot<T: Scalar, D1: Scalar, S: Semiring<T, D1, T>>(
    sr: S,
    cols: &[usize],
    vals: &[D1],
    u: &[Option<T>],
) -> Option<T> {
    let (add, mul) = (sr.add(), sr.mul());
    let mut acc: Option<T> = None;
    for (&j, &aij) in cols.iter().zip(vals) {
        if let Some(uj) = u[j] {
            let term = mul.apply(aij, uj);
            acc = Some(acc.map_or(term, |v| add.apply(v, term)));
            if acc == add.terminal() {
                break;
            }
        }
    }
    acc
}

/// rmat12 and grid48, symmetric, by name.
fn graphs() -> Vec<(&'static str, Matrix<bool>)> {
    let rmat = symmetrize(&Rmat::new(12, 8).seed(5).generate());
    vec![
        ("rmat12", adjacency(rmat)),
        ("grid48", adjacency(grid_2d(48, 48))),
    ]
}

/// A mixing hash of `x`, for values that differ without a pattern.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fully present `f64` operand for `a`: mostly plain values, with `-0.0`,
/// `+0.0`, subnormals and `±∞` scattered, one NaN, and every neighbour of
/// the first few short rows `-0.0`, so that those rows fold only `-0.0`.
/// `salt` varies the values, not where the specials sit.
fn f64_operand(a: &CsrMatrix<bool>, salt: u64) -> Vec<f64> {
    let n = a.nrows();
    let mut u: Vec<f64> = (0..n as u64)
        .map(|j| match mix(j) % 16 {
            0 => -0.0,
            1 => 0.0,
            2 => f64::from_bits(1 + mix(j ^ salt) % 1000),
            3 => -f64::MIN_POSITIVE / 3.0,
            4 if j.is_multiple_of(5) => f64::INFINITY,
            5 if j.is_multiple_of(5) => f64::NEG_INFINITY,
            _ => (mix(j ^ salt) % 2000) as f64 / 7.0 - 140.0,
        })
        .collect();
    u[n / 2] = f64::NAN;
    for i in short_rows(a) {
        for &j in a.row(i).0 {
            u[j] = -0.0;
        }
    }
    u
}

/// The first four rows of at most three entries, none touching `n / 2`.
fn short_rows(a: &CsrMatrix<bool>) -> Vec<usize> {
    let n = a.nrows();
    (0..n)
        .filter(|&i| (1..=3).contains(&a.row_nnz(i)) && !a.row(i).0.contains(&(n / 2)))
        .take(4)
        .collect()
}

/// Every row of `a` at `f64`s: subnormal on some entries, never zero (a
/// zero times `±∞` would hide the infinities behind NaNs).
fn f64_matrix(a: &CsrMatrix<bool>) -> Vec<(usize, usize, f64)> {
    a.iter()
        .map(|(i, j, _)| {
            let h = mix((i * a.ncols() + j) as u64);
            let v = if h.is_multiple_of(11) {
                f64::from_bits(1 + h % 4096)
            } else {
                0.25 + (h % 64) as f64 / 8.0
            };
            (i, j, v)
        })
        .collect()
}

/// A fully present `u64` operand of length `n`: `0` (the `(min, second)`
/// terminal) and `u64::MAX` scattered among plain values.
fn u64_operand(n: usize, salt: u64) -> Vec<Option<u64>> {
    (0..n as u64)
        .map(|j| match mix(j ^ salt) % 8 {
            0 => 0,
            1 => u64::MAX,
            _ => mix(j + salt) >> 8,
        })
        .map(Some)
        .collect()
}

/// `v`'s bits, every NaN as one: Rust leaves a NaN result's sign and
/// payload unspecified (the compiler may commute `+`, and `∞ + -∞` and a
/// stored NaN carry different payloads), so a NaN compares as a NaN and
/// every other value bit for bit.
fn f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// Positions `i % 3 == 0`, set: a mask whose complement keeps the rest.
fn mask(n: usize) -> Vector<bool> {
    let mut m = Vector::new(n);
    for i in (0..n).step_by(3) {
        m.set(i, true);
    }
    m
}

/// `w = A ⊕.⊗ u` on `ctx`, unmasked or under `¬mask`, against the
/// test-local [`row_dot`] on each row the call keeps, through `bits`.
#[allow(clippy::too_many_arguments)]
fn check<B: Backend, T: Scalar, D1: Scalar, S: Semiring<T, D1, T>>(
    ctx: &Context<B>,
    label: &str,
    sr: S,
    a: &Matrix<D1>,
    values: &[T],
    mask: Option<&Vector<bool>>,
    bits: impl Fn(T) -> u64,
) {
    let csr = a.csr();
    let dense = DenseVector::from_values(values.to_vec());
    let u = Vector::from(dense.clone());
    let slots: Vec<Option<T>> = values.iter().copied().map(Some).collect();
    let keep_bits = mask.map(|m| m.to_dense_repr());
    let keep = keep_bits.as_ref().map(|m| VecMask::new(m, true));
    assert_eq!(
        RowFold::new(sr, csr, &dense, keep).kind(),
        FoldKind::Full,
        "{label}"
    );
    let desc = match mask {
        Some(_) => Descriptor::new().complement_mask(),
        None => Descriptor::new(),
    };
    let mut w = Vector::new(csr.nrows());
    ctx.mxv(&mut w, mask, no_accum(), sr, a, &u, &desc).unwrap();
    for i in 0..csr.nrows() {
        let (cols, vals) = csr.row(i);
        let kept = keep.is_none_or(|k| k.keeps(i));
        let want = kept.then(|| row_dot(sr, cols, vals, &slots)).flatten();
        assert_eq!(w.get(i).map(&bits), want.map(&bits), "{label}, row {i}");
    }
}

/// Both pulls, two operands each, on one context: unmasked and under the
/// complemented mask, every product over every graph.
fn check_backend<B: Backend>(ctx: &Context<B>, backend: &str) {
    let (psr, ptr, msr) = (
        PlusSecond::<f64>::new(),
        PlusTimes::<f64>::new(),
        MinSecond::<u64>::new(),
    );
    for (graph, pattern) in graphs() {
        let n = pattern.nrows();
        let weighted = Matrix::build(n, n, f64_matrix(pattern.csr()), Second::new()).unwrap();
        let m = mask(n);
        for salt in [1, 2] {
            let uf = f64_operand(pattern.csr(), salt);
            let ul: Vec<u64> = u64_operand(n, salt).into_iter().flatten().collect();
            for mask in [None, Some(&m)] {
                let masked = mask.is_some();
                let label = |sr| format!("{backend} {graph} {sr} salt {salt} masked {masked}");
                check(
                    ctx,
                    &label("(+, second)"),
                    psr,
                    &pattern,
                    &uf,
                    mask,
                    f64_bits,
                );
                check(ctx, &label("(+, ×)"), ptr, &weighted, &uf, mask, f64_bits);
                check(
                    ctx,
                    &label("(min, second)"),
                    msr,
                    &pattern,
                    &ul,
                    mask,
                    |v| v,
                );
            }
        }
    }
}

#[test]
fn full_fold_matches_row_dot_on_seq() {
    check_backend(&Context::sequential(), "seq");
}

#[test]
fn full_fold_matches_row_dot_on_par() {
    check_backend(&Context::parallel_with_threads(2), "par");
}

#[test]
fn full_fold_matches_row_dot_on_cuda() {
    check_backend(&Context::cuda_default(), "cuda");
}

/// The operands above hold what the fold must keep: `-0.0`, subnormals,
/// `±∞` and a NaN among the `f64` values, rows that fold only `-0.0`
/// (their `(+, second)` sum is `-0.0`, which `0.0 ⊕ -0.0` would turn into
/// `0.0`), and `(min, second)` rows that stop early at `0`.
#[test]
fn operands_reach_every_special_case() {
    let (psr, msr) = (PlusSecond::<f64>::new(), MinSecond::<u64>::new());
    for (graph, a) in graphs() {
        let (a, n) = (a.csr(), a.nrows());
        let values = f64_operand(a, 1);
        assert!(values.iter().any(|v| v.is_nan()), "{graph}: NaN");
        assert!(values.contains(&f64::INFINITY), "{graph}: +inf");
        assert!(values.contains(&f64::NEG_INFINITY), "{graph}: -inf");
        assert!(
            values.iter().any(|v| v.is_subnormal()),
            "{graph}: subnormal"
        );
        let u: Vec<Option<f64>> = values.into_iter().map(Some).collect();
        let negative_zero = short_rows(a)
            .into_iter()
            .filter(|&i| {
                let (cols, vals) = a.row(i);
                row_dot(psr, cols, vals, &u).map(f64::to_bits) == Some((-0.0f64).to_bits())
            })
            .count();
        assert!(negative_zero > 0, "{graph}: a row folding only -0.0");
        let labels = u64_operand(n, 1);
        let stops = (0..n).any(|i| {
            let (cols, vals) = a.row(i);
            let at = cols.iter().position(|&j| labels[j] == Some(0));
            row_dot(msr, cols, vals, &labels) == Some(0) && at.is_some_and(|q| q + 1 < cols.len())
        });
        assert!(stops, "{graph}: a (min, second) row stopping early");
    }
}
