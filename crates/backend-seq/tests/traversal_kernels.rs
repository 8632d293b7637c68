//! Property tests of the two traversal kernels' shortcuts: `row_dot` may
//! stop a row early, the slot fold and the full fold may replace it, and
//! `vxm` drains by presence bits, and none may change a result; and `early_exits` reads off a
//! result exactly the rows `row_dot` stopped early, where it stopped them,
//! as `early_exits_stacked` does for k members at once.

use gbtl_algebra::{
    BinaryOp, CustomSemiring, Div, LorLand, MaxMin, MinPlus, Monoid, PlusMonoid, PlusTimes, Scalar,
    Semiring,
};
use gbtl_backend_seq::{early_exits, early_exits_stacked, mxv, row_dot, vxm, FoldKind, RowFold};
use gbtl_sparse::{CooMatrix, CsrMatrix, DenseVector, SparseVector, VecMask};
use gbtl_util::workspace;
use proptest::prelude::*;

/// A dense vector holding `u`'s present entries.
fn dense<T: Scalar>(u: &[Option<T>]) -> DenseVector<T> {
    let mut d = DenseVector::new(u.len());
    for (i, v) in u.iter().enumerate() {
        if let Some(v) = *v {
            d.set(i, v);
        }
    }
    d
}

/// A mask vector holding the positions `keep` sets.
fn kept(keep: &[bool]) -> DenseVector<bool> {
    dense(&keep.iter().map(|&k| k.then_some(true)).collect::<Vec<_>>())
}

/// The fold `row_dot` must equal: every entry, no exit.
fn full_fold<T: Scalar, D1: Scalar, S: Semiring<T, D1, T>>(
    sr: S,
    cols: &[usize],
    vals: &[D1],
    u: &[Option<T>],
) -> Option<T> {
    let mut acc = None;
    for (&j, &aij) in cols.iter().zip(vals) {
        if let Some(uj) = u[j] {
            let term = sr.mul().apply(aij, uj);
            acc = Some(acc.map_or(term, |v| sr.add().apply(v, term)));
        }
    }
    acc
}

/// `row_dot` over `entries` (column, value) against the full fold, compared
/// through `bits` so that `-0.0` and `0.0` differ.
fn check_row<T: Scalar, D1: Scalar, S: Semiring<T, D1, T>>(
    sr: S,
    entries: &[(usize, D1)],
    u: &[Option<T>],
    bits: impl Fn(T) -> u64,
) {
    let (cols, vals): (Vec<usize>, Vec<D1>) = entries.iter().copied().unzip();
    let (got, consumed) = row_dot(sr, &cols, &vals, &dense(u));
    let want = full_fold(sr, &cols, &vals, u);
    assert_eq!(got.map(&bits), want.map(&bits));
    assert!(consumed <= cols.len());
    match sr.add().terminal() {
        None => assert_eq!(consumed, cols.len(), "no terminal, no early exit"),
        Some(t) => {
            if consumed < cols.len() {
                assert_eq!(got, Some(t), "stopped short of the row's end");
            }
        }
    }
    // the count is the prefix that produced the result
    let prefix = full_fold(sr, &cols[..consumed], &vals[..consumed], u);
    assert_eq!(prefix.map(&bits), got.map(&bits));
}

const WIDTH: usize = 24;

/// A row of up to 40 entries over `WIDTH` columns.
fn row<V: Strategy>(value: V) -> impl Strategy<Value = Vec<(usize, V::Value)>> {
    proptest::collection::vec((0..WIDTH, value), 0..40)
}

/// An operand with absent positions.
fn operand<V: Strategy>(value: V) -> impl Strategy<Value = Vec<Option<V::Value>>> {
    proptest::collection::vec(proptest::option::of(value), WIDTH)
}

/// `u32`s that meet both of the domain's bounds often.
fn edgy_u32() -> impl Strategy<Value = u32> {
    (0usize..5).prop_map(|k| [0, 1, 7, u32::MAX - 1, u32::MAX][k])
}

/// Floats at the domain's edges: both infinities (whose sum is a `NaN`
/// term), `NaN` itself and both zeros. An accumulator that went `NaN` never
/// equals `Min`'s terminal and stays `NaN`; one already at `-inf` must stay
/// `-inf` through a later `NaN` term — with or without the early exit.
fn edgy_f64() -> impl Strategy<Value = f64> {
    const EDGES: [f64; 8] = [
        f64::NEG_INFINITY,
        -2.5,
        -0.0,
        0.0,
        1.5,
        1e300,
        f64::INFINITY,
        f64::NAN,
    ];
    (0..EDGES.len()).prop_map(|k| EDGES[k])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_dot_lor_land(entries in row(any::<bool>()), u in operand(any::<bool>())) {
        check_row(LorLand::new(), &entries, &u, u64::from);
    }

    #[test]
    fn row_dot_min_plus_u32(entries in row(0u32..3), u in operand(0u32..3)) {
        check_row(MinPlus::<u32>::new(), &entries, &u, u64::from);
    }

    #[test]
    fn row_dot_min_plus_f64(entries in row(edgy_f64()), u in operand(edgy_f64())) {
        check_row(MinPlus::<f64>::new(), &entries, &u, f64::to_bits);
    }

    #[test]
    fn row_dot_max_min_u32(entries in row(edgy_u32()), u in operand(edgy_u32())) {
        check_row(MaxMin::<u32>::new(), &entries, &u, u64::from);
    }

    #[test]
    fn row_dot_plus_times(entries in row(-9i64..9), u in operand(-9i64..9)) {
        check_row(PlusTimes::<i64>::new(), &entries, &u, |v| v as u64);
    }
}

/// Operand positions of the slot-fold properties.
const SLOTS: usize = 64;

/// Presence shares the slot fold is checked at, in 64ths: none, one, half,
/// all but one, all.
const SHARES: [usize; 5] = [0, 1, 32, 63, 64];

/// An operand over [`SLOTS`] positions with exactly `present` of them
/// present: the ones whose `keys` rank lowest.
fn with_share<T: Scalar>(values: &[T], keys: &[u64], present: usize) -> DenseVector<T> {
    let mut order: Vec<usize> = (0..SLOTS).collect();
    order.sort_by_key(|&j| (keys[j], j));
    let mut u = DenseVector::new(SLOTS);
    for &j in &order[..present] {
        u.set(j, values[j]);
    }
    u
}

/// The slot fold against [`row_dot`] on every row, at every share: the
/// same bits and the same count. Then `mxv` — whichever fold the share
/// picks — against cuda-sim's `mxv` under both kernels, on the rows as a
/// matrix, unmasked and masked by `keep`.
fn check_slot_fold<T: Scalar, D1: Scalar, S: Semiring<T, D1, T>>(
    sr: S,
    rows: &[Vec<(usize, D1)>],
    values: &[T],
    keys: &[u64],
    keep: &[bool],
    bits: impl Fn(T) -> u64,
) {
    let a = slot_matrix(rows);
    for present in SHARES {
        let u = with_share(values, keys, present);
        let slots = RowFold::slots(sr, &a, &u, None);
        check_fold_rows(sr, &a, &u, &slots, &bits, present);
        let full = RowFold::new(sr, &a, &u, None).kind() == FoldKind::Full;
        assert_eq!(full, present == SLOTS, "share {present}/64");
        let keep = kept(&keep[..a.nrows()]);
        for mask in [None, Some(VecMask::new(&keep, false))] {
            let w = mxv(&a, &u, sr, mask);
            let stopped: Vec<(usize, usize)> = (0..a.nrows())
                .filter(|&i| mask.is_none_or(|keep| keep.keeps(i)))
                .filter_map(|i| {
                    let (cols, vals) = a.row(i);
                    let (_, consumed) = row_dot(sr, cols, vals, &u);
                    (consumed < cols.len()).then_some((i, consumed))
                })
                .collect();
            assert_eq!(
                early_exits(sr, &a, |j| u.get(j), w.iter()),
                stopped,
                "share {present}/64"
            );
        }
    }
}

/// `rows` as a matrix over [`SLOTS`] columns, a row's first entry at a
/// column kept.
fn slot_matrix<D1: Scalar>(rows: &[Vec<(usize, D1)>]) -> CsrMatrix<D1> {
    let mut coo = CooMatrix::new(rows.len(), SLOTS);
    for (i, row) in rows.iter().enumerate() {
        for &(j, v) in row {
            coo.push(i, j % SLOTS, v);
        }
    }
    CsrMatrix::from_coo(coo, |first, _| first)
}

/// The full fold against [`row_dot`] over a fully present operand: the
/// same bits and the same count on every row. `mxv` takes the full fold
/// there, and its result is what [`row_dot`] folds, unmasked and masked.
fn check_full_fold<T: Scalar, D1: Scalar, S: Semiring<T, D1, T>>(
    sr: S,
    rows: &[Vec<(usize, D1)>],
    values: &[T],
    keep: &[bool],
    bits: impl Fn(T) -> u64,
) {
    let a = slot_matrix(rows);
    let u = DenseVector::from_values(values.to_vec());
    check_fold_rows(sr, &a, &u, &RowFold::full(sr, &a, &u, None), &bits, SLOTS);
    let keep = kept(&keep[..a.nrows()]);
    for mask in [None, Some(VecMask::new(&keep, false))] {
        assert_eq!(RowFold::new(sr, &a, &u, mask).kind(), FoldKind::Full);
        let got = mxv(&a, &u, sr, mask);
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            let kept = mask.is_none_or(|keep| keep.keeps(i));
            let want = kept.then(|| row_dot(sr, cols, vals, &u).0).flatten();
            assert_eq!(got.get(i).map(&bits), want.map(&bits), "row {i}");
        }
    }
}

/// Every row of `fold` against [`row_dot`]: the same bits, the same count.
fn check_fold_rows<T: Scalar, D1: Scalar, S: Semiring<T, D1, T>>(
    sr: S,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    fold: &RowFold<'_, T, D1, S>,
    bits: impl Fn(T) -> u64,
    present: usize,
) {
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let (want, want_consumed) = row_dot(sr, cols, vals, u);
        let (got, consumed) = fold.row(i);
        assert_eq!(
            got.map(&bits),
            want.map(&bits),
            "share {present}/64, row {i}"
        );
        assert_eq!(consumed, want_consumed, "share {present}/64, row {i}");
    }
}

/// The slot fold against [`row_dot`] where a product at an absent position
/// would fail: entries at present positions hold their `tame` value, those
/// at absent ones `hostile`, on which `⊗` panics with every operand value.
/// The `Option` fold never computes such a product, so neither may the slot
/// fold — nor `⊕` a sum the `Option` fold never forms.
fn check_hostile<T: Scalar, S: Semiring<T>>(
    sr: S,
    rows: &[Vec<(usize, T)>],
    values: &[T],
    keys: &[u64],
    hostile: T,
    bits: impl Fn(T) -> u64,
) {
    for present in SHARES {
        let u = with_share(values, keys, present);
        let mut coo = CooMatrix::new(rows.len(), SLOTS);
        for (i, row) in rows.iter().enumerate() {
            for &(j, tame) in row {
                let v = if u.get(j).is_some() { tame } else { hostile };
                coo.push(i, j, v);
            }
        }
        let a = CsrMatrix::from_coo(coo, |first, _| first);
        check_fold_rows(
            sr,
            &a,
            &u,
            &RowFold::slots(sr, &a, &u, None),
            &bits,
            present,
        );
        let got = mxv(&a, &u, sr, None);
        let want: Vec<Option<T>> = (0..a.nrows())
            .map(|i| {
                let (cols, vals) = a.row(i);
                row_dot(sr, cols, vals, &u).0
            })
            .collect();
        let got: Vec<Option<T>> = (0..got.len()).map(|i| got.get(i)).collect();
        assert_eq!(&got[..], &want[..], "share {present}/64");
    }
}

/// `to_bits`, except that every NaN is one value. Rust leaves a NaN
/// result's sign and payload unspecified, and x86 propagates the first
/// operand's NaN, so an optimiser that swaps the operands of a commutative
/// `+` may change which NaN comes out; `-0.0` and `0.0` still differ.
fn nan_blind_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn slot_rows<V: Strategy>(value: V) -> impl Strategy<Value = Vec<Vec<(usize, V::Value)>>> {
    proptest::collection::vec(proptest::collection::vec((0..SLOTS, value), 0..90), 1..12)
}

fn slot_values<V: Strategy>(value: V) -> impl Strategy<Value = Vec<V::Value>> {
    proptest::collection::vec(value, SLOTS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slot_fold_plus_times_f64_keeps_signed_zeros_and_nans(
        rows in slot_rows(edgy_f64()),
        values in slot_values(edgy_f64()),
        keys in slot_values(any::<u64>()),
        keep in proptest::collection::vec(any::<bool>(), 12),
    ) {
        check_slot_fold(PlusTimes::<f64>::new(), &rows, &values, &keys, &keep, nan_blind_bits);
    }

    /// Edges at absent positions weigh `u32::MAX`, so in a debug build an
    /// absent entry that added its edge to any operand value would panic.
    #[test]
    fn slot_fold_min_plus_u32_never_adds_an_absent_entry(
        rows in slot_rows(0u32..=u32::MAX / 2),
        values in slot_values(1u32..=u32::MAX / 2),
        keys in slot_values(any::<u64>()),
    ) {
        check_hostile(MinPlus::<u32>::new(), &rows, &values, &keys, u32::MAX, u64::from);
    }

    /// `⊗` is `/` and absent positions hold `i64::MIN`: divided by an
    /// operand value of `-1` it panics in any build.
    #[test]
    fn slot_fold_div_never_divides_an_absent_entry(
        rows in slot_rows(-9i64..9),
        values in slot_values((0usize..4).prop_map(|k| [-1i64, 1, 2, -3][k])),
        keys in slot_values(any::<u64>()),
    ) {
        let sr = CustomSemiring::new(PlusMonoid::<i64>::new(), Div::<i64>::new());
        check_hostile(sr, &rows, &values, &keys, i64::MIN, |v| v as u64);
    }

    /// Small values: zeros in both operands, so rows reach `min`'s terminal.
    #[test]
    fn slot_fold_min_plus_u32_exits_where_row_dot_does(
        rows in slot_rows(0u32..3),
        values in slot_values(0u32..3),
        keys in slot_values(any::<u64>()),
        keep in proptest::collection::vec(any::<bool>(), 12),
    ) {
        check_slot_fold(MinPlus::<u32>::new(), &rows, &values, &keys, &keep, u64::from);
    }

    #[test]
    fn slot_fold_lor_land(
        rows in slot_rows(any::<bool>()),
        values in slot_values(any::<bool>()),
        keys in slot_values(any::<u64>()),
        keep in proptest::collection::vec(any::<bool>(), 12),
    ) {
        check_slot_fold(LorLand::new(), &rows, &values, &keys, &keep, u64::from);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_fold_lor_land(
        rows in slot_rows(any::<bool>()),
        values in slot_values(any::<bool>()),
        keep in proptest::collection::vec(any::<bool>(), 12),
    ) {
        check_full_fold(LorLand::new(), &rows, &values, &keep, u64::from);
    }

    /// Small values: zeros in both operands, so rows reach `min`'s terminal.
    #[test]
    fn full_fold_min_plus_u32(
        rows in slot_rows(0u32..3),
        values in slot_values(0u32..3),
        keep in proptest::collection::vec(any::<bool>(), 12),
    ) {
        check_full_fold(MinPlus::<u32>::new(), &rows, &values, &keep, u64::from);
    }

    #[test]
    fn full_fold_min_plus_f64(
        rows in slot_rows(edgy_f64()),
        values in slot_values(edgy_f64()),
        keep in proptest::collection::vec(any::<bool>(), 12),
    ) {
        check_full_fold(MinPlus::<f64>::new(), &rows, &values, &keep, nan_blind_bits);
    }

    #[test]
    fn full_fold_max_min_u32(
        rows in slot_rows(edgy_u32()),
        values in slot_values(edgy_u32()),
        keep in proptest::collection::vec(any::<bool>(), 12),
    ) {
        check_full_fold(MaxMin::<u32>::new(), &rows, &values, &keep, u64::from);
    }

    #[test]
    fn full_fold_plus_times_i64(
        rows in slot_rows(-9i64..9),
        values in slot_values(-9i64..9),
        keep in proptest::collection::vec(any::<bool>(), 12),
    ) {
        check_full_fold(PlusTimes::<i64>::new(), &rows, &values, &keep, |v| v as u64);
    }

    /// A row whose terms are all `-0.0` folds to `-0.0`; seeded with the
    /// identity it would fold to `0.0 + -0.0 = 0.0`. Short rows, so that
    /// many are.
    #[test]
    fn full_fold_plus_times_f64_keeps_signed_zeros(
        rows in proptest::collection::vec(proptest::collection::vec((0..SLOTS, edgy_f64()), 0..4), 1..12),
        values in slot_values(edgy_f64()),
        keep in proptest::collection::vec(any::<bool>(), 12),
    ) {
        check_full_fold(PlusTimes::<f64>::new(), &rows, &values, &keep, nan_blind_bits);
    }
}

/// Largest graph the `vxm` properties draw.
const MAX_N: usize = 40;

/// `vxm` against push computed the other way round — `mxv` over `Aᵀ` on the
/// densified frontier — for three frontiers cut from `order` (the longest
/// prefix carrying fewer than `n` out-edges, that prefix and one vertex more,
/// and every vertex: sparse and dense rounds) under
/// no mask, `visited` as the mask, and its complement. After every call the
/// pooled accumulator must be back to all-`None`.
fn check_vxm<T: Scalar, S: Semiring<T>>(
    sr: S,
    a: &CsrMatrix<T>,
    order: &[usize],
    frontier_vals: &[T],
    visited: &DenseVector<bool>,
) {
    let n = a.nrows();
    let at = a.transpose();
    let out_edges = |f: &[usize]| f.iter().map(|&k| a.row_nnz(k)).sum::<usize>();
    let cut = (0..=n)
        .take_while(|&p| out_edges(&order[..p]) < n)
        .last()
        .expect("the empty prefix carries no edge");
    assert!(
        cut < n,
        "every row holds an entry, so all of them carry n edges"
    );
    let frontiers = [&order[..cut], &order[..cut + 1], order];
    assert!(out_edges(frontiers[0]) < n && out_edges(frontiers[1]) >= n);
    for frontier in frontiers {
        let mut u = SparseVector::new(n);
        for &k in frontier {
            u.set(k, frontier_vals[k]);
        }
        let masks = [
            None,
            Some(VecMask::new(visited, false)),
            Some(VecMask::new(visited, true)),
        ];
        for mask in masks {
            let got = vxm(&u, a, sr, mask);
            assert_eq!(got.to_dense(), mxv(&at, &u.to_dense(), sr, mask));
            workspace::with_accumulator::<T, _>(n, |acc| {
                assert!(acc.iter().all(Option::is_none), "accumulator left dirty");
            });
        }
    }
}

/// An `n × n` matrix with one to five entries in every row: row `i` takes
/// its `degrees[i]` next draws of `picks` (column seed, value).
fn matrix<T: Scalar>(n: usize, degrees: &[usize], picks: &[(usize, T)]) -> CsrMatrix<T> {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        for &(seed, v) in &picks[5 * i..5 * i + degrees[i]] {
            coo.push(i, seed % n, v);
        }
    }
    CsrMatrix::from_coo(coo, |_, later| later)
}

/// The vertices `0..n` in the order of their `keys`.
fn shuffled(n: usize, keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

fn draws<V: Strategy>(value: V, per_vertex: usize) -> impl Strategy<Value = Vec<V::Value>> {
    proptest::collection::vec(value, per_vertex * MAX_N)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vxm_min_plus_matches_pull_over_the_transpose(
        n in 8..MAX_N,
        degrees in draws(1usize..6, 1),
        picks in draws((0..MAX_N, 0u32..4), 5),
        keys in draws(any::<u64>(), 1),
        frontier_vals in draws(0u32..4, 1),
        visited in draws(proptest::option::of(any::<bool>()), 1),
    ) {
        let a = matrix(n, &degrees, &picks);
        let visited = dense(&visited[..n]);
        check_vxm(MinPlus::<u32>::new(), &a, &shuffled(n, &keys), &frontier_vals, &visited);
    }

    #[test]
    fn vxm_lor_land_matches_pull_over_the_transpose(
        n in 8..MAX_N,
        degrees in draws(1usize..6, 1),
        picks in draws((0..MAX_N, any::<bool>()), 5),
        keys in draws(any::<u64>(), 1),
        frontier_vals in draws(any::<bool>(), 1),
        visited in draws(proptest::option::of(any::<bool>()), 1),
    ) {
        let a = matrix(n, &degrees, &picks);
        let visited = dense(&visited[..n]);
        check_vxm(LorLand::new(), &a, &shuffled(n, &keys), &frontier_vals, &visited);
    }

    #[test]
    fn vxm_plus_times_matches_pull_over_the_transpose(
        n in 8..MAX_N,
        degrees in draws(1usize..6, 1),
        picks in draws((0..MAX_N, -9i64..9), 5),
        keys in draws(any::<u64>(), 1),
        frontier_vals in draws(-9i64..9, 1),
        visited in draws(proptest::option::of(any::<bool>()), 1),
    ) {
        let a = matrix(n, &degrees, &picks);
        let visited = dense(&visited[..n]);
        check_vxm(PlusTimes::<i64>::new(), &a, &shuffled(n, &keys), &frontier_vals, &visited);
    }
}

/// `early_exits_stacked` against `early_exits` member by member: k
/// operands (rows of `u`, built from `members`) pulled over `a`, each
/// member walking only the rows its `walks` bits allow.
fn check_stacked<T: Scalar, S: Semiring<T>>(
    sr: S,
    a: &CsrMatrix<T>,
    members: &[Vec<Option<T>>],
    allowed: &[u64],
) {
    let (k, n) = (members.len(), a.nrows());
    let words = n.div_ceil(64);
    let (mut u, mut w) = (CooMatrix::new(k, n), CooMatrix::new(k, n));
    let mut want = Vec::new();
    for (r, member) in members.iter().enumerate() {
        let operand = dense(&member[..n]);
        let product = mxv(a, &operand, sr, None);
        for (j, v) in operand.iter() {
            u.push(r, j, v);
        }
        for (i, v) in product.iter() {
            w.push(r, i, v);
        }
        let walked = |i: usize| allowed[(r * words + i / 64) % allowed.len()] >> (i % 64) & 1 == 1;
        let walks = product.iter().filter(|&(i, _)| walked(i));
        want.push(early_exits(sr, a, |j| operand.get(j), walks));
    }
    let (u, w) = (
        CsrMatrix::from_coo(u, |x, _| x),
        CsrMatrix::from_coo(w, |x, _| x),
    );
    let got = early_exits_stacked(sr, a, &u, &w, |r, stops| {
        for (b, stop) in stops.iter_mut().enumerate() {
            *stop &= allowed[(r * words + b) % allowed.len()];
        }
    });
    assert_eq!(got, want, "k = {k}, n = {n}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over 1 to 70 members (two chunks of 64 past 64), a boolean matrix
    /// with stored `false`s (a term that does not reach the terminal) and a
    /// `(min, +)` one with zero weights (one that does).
    #[test]
    fn early_exits_stacked_is_early_exits_per_member(
        n in 8..MAX_N,
        k in 1usize..71,
        degrees in draws(1usize..6, 1),
        picks in draws((0..MAX_N, 0u32..3), 5),
        present in proptest::collection::vec(proptest::option::of(0u32..3), 70 * MAX_N),
        allowed in draws(any::<u64>(), 2),
    ) {
        let members = |f: &dyn Fn(u32) -> u32| -> Vec<Vec<Option<u32>>> {
            present.chunks(MAX_N).take(k).map(|m| m.iter().map(|v| v.map(f)).collect()).collect()
        };
        let a = matrix(n, &degrees, &picks);
        check_stacked(MinPlus::<u32>::new(), &a, &members(&|v| v), &allowed);
        let bools: Vec<(usize, bool)> = picks.iter().map(|&(j, v)| (j, v > 0)).collect();
        let a = matrix(n, &degrees, &bools);
        let members: Vec<Vec<Option<bool>>> = members(&|v| v)
            .into_iter()
            .map(|m| m.into_iter().map(|v| v.map(|v| v > 0)).collect())
            .collect();
        check_stacked(LorLand::new(), &a, &members, &allowed);
    }
}
