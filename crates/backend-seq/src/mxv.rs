//! Matrix–vector products in both directions.
//!
//! * [`mxv`] — *pull*: `w_i = ⊕_j A(i,j) ⊗ u_j`, walking rows of `A`.
//!   Efficient when `u` is dense-ish; with a mask, masked-out rows are
//!   skipped entirely (this is the saving experiment R-A2 measures).
//! * [`vxm`] — *push*: `w = uᵀA`, walking only the rows of `A` selected by
//!   stored entries of `u`. Efficient when `u` is a sparse frontier.

use crate::rows::Touched;
use gbtl_algebra::{BinaryOp, MinPlus, Monoid, Scalar, Semiring};
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector, VecMask};
use gbtl_util::workspace;
use std::hint::select_unpredictable;
use std::ops::Range;

/// `⊕`-fold of `vals[q] ⊗ u[cols[q]]` over one row's entries, in entry
/// order, skipping the positions `u`'s presence bits leave absent; `None`
/// when every one is absent.
/// The one row kernel of pull `mxv` on every backend: the sequential and
/// parallel backends run it per row, cuda-sim's SpMV kernels differ only in
/// how the device would schedule (and so be charged for) it.
///
/// The fold stops once it equals the add monoid's [`Monoid::terminal`] —
/// no later entry can change it (a BFS pull row is done at its first
/// frontier neighbour). The second value is how many of the row's entries
/// were consumed: `cols.len()` unless it stopped early, always that for a
/// monoid without a terminal (whose test folds away at compile time).
#[inline]
pub fn row_dot<T, D1, S>(
    sr: S,
    cols: &[usize],
    vals: &[D1],
    u: &DenseVector<T>,
) -> (Option<T>, usize)
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let (add, mul) = (sr.add(), sr.mul());
    let terminal = add.terminal();
    let (values, bits) = (u.values(), u.bits());
    let mut acc: Option<T> = None;
    for (q, (&j, &aij)) in cols.iter().zip(vals).enumerate() {
        if bits[j / 64] >> (j % 64) & 1 == 1 {
            let term = mul.apply(aij, values[j]);
            acc = Some(match acc {
                Some(v) => add.apply(v, term),
                None => term,
            });
            if acc == terminal {
                return (acc, q + 1);
            }
        }
    }
    (acc, cols.len())
}

/// Where the folds of a pull `w = A ⊕.⊗ u` stopped short of their row's
/// end, read off its result: `(row, entries consumed)` in row order, as
/// [`row_dot`] counts them. A fold stops only at the add monoid's terminal
/// value, which absorbs every later term, so only a row whose result is
/// that value stopped, and it stopped at the first prefix whose fold is
/// that value; every other row walked its full length. `u` reads the
/// operand by position; `w` is the product's entries, from either
/// direction. A monoid with no terminal value returns at once.
pub fn early_exits<T, D1, S>(
    sr: S,
    a: &CsrMatrix<D1>,
    u: impl Fn(usize) -> Option<T>,
    w: impl IntoIterator<Item = (usize, T)>,
) -> Vec<(usize, usize)>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let (add, mul) = (sr.add(), sr.mul());
    let Some(terminal) = add.terminal() else {
        return Vec::new();
    };
    let walk = |cols: &[usize], vals: &[D1]| {
        let mut acc: Option<T> = None;
        for (q, (&j, &aij)) in cols.iter().zip(vals).enumerate() {
            if let Some(uj) = u(j) {
                let term = mul.apply(aij, uj);
                let next = acc.map_or(term, |v| add.apply(v, term));
                if next == terminal {
                    return q + 1;
                }
                acc = Some(next);
            }
        }
        cols.len()
    };
    w.into_iter()
        .filter(|&(_, v)| v == terminal)
        .filter_map(|(i, _)| {
            let (cols, vals) = a.row(i);
            let consumed = walk(cols, vals);
            (consumed < cols.len()).then_some((i, consumed))
        })
        .collect()
}

/// [`early_exits`] for k pulls over one `a` at once, member `r` pulling
/// `u`'s row `r` into `w`'s row `r` (both k×n), and walking only the rows
/// `walks(r, words)` leaves set in `words` (all set when asked; bit `i` of
/// word `b` for row `64·b + i`). Per member, `(row, entries consumed)` in
/// row order, for every one of the k members.
///
/// A member's rows to walk are found from whichever is shorter, its row
/// of `w` or the rows `walks` leaves it, the other searched; a row several
/// members stop in is walked once for all of them, each stopping at its
/// own first prefix whose fold is the terminal value. The members holding
/// an operand position are read 64 to a word, and a member's value only
/// where its bit is set. A product with no entry at the terminal value
/// returns at once.
pub fn early_exits_stacked<T, D1, S>(
    sr: S,
    a: &CsrMatrix<D1>,
    u: &CsrMatrix<T>,
    w: &CsrMatrix<T>,
    walks: impl Fn(usize, &mut [u64]),
) -> Vec<Vec<(usize, usize)>>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let (add, mul) = (sr.add(), sr.mul());
    let (k, n) = (w.nrows(), a.nrows());
    let mut exits = vec![Vec::new(); k];
    let Some(terminal) = add.terminal().filter(|t| w.vals().contains(t)) else {
        return exits;
    };
    // per chunk of 64 members: each row's members to walk it, and each
    // operand position's members holding it, one bit a member, with their
    // values (64 a position; what a clear bit's slot holds is never read)
    let (mut pending, mut held) = (vec![0u64; n], vec![0u64; n]);
    let (mut words, mut rows) = (vec![0u64; n.div_ceil(64)], Vec::new());
    let width = k.min(64);
    let mut value = Vec::new();
    for chunk in (0..k).step_by(64) {
        let members = chunk..(chunk + 64).min(k);
        let mut walking = 0u64;
        for r in members.clone() {
            let bit = 1 << (r - chunk);
            words.fill(u64::MAX);
            walks(r, &mut words);
            let (cols, vals) = w.row(r);
            let mut walk = |i: usize| {
                rows.extend((pending[i] == 0).then_some(i));
                pending[i] |= bit;
                walking |= bit;
            };
            let allowed: u32 = words.iter().map(|b| b.count_ones()).sum();
            if cols.len() <= allowed as usize {
                for (&i, &v) in cols.iter().zip(vals) {
                    if v == terminal && words[i / 64] >> (i % 64) & 1 == 1 {
                        walk(i);
                    }
                }
            } else {
                let mut at = 0;
                for (b, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 && at < cols.len() {
                        let i = 64 * b + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        at += gallop(&cols[at..], i);
                        if cols.get(at) == Some(&i) && vals[at] == terminal {
                            walk(i);
                        }
                    }
                }
            }
        }
        if walking == 0 {
            continue;
        }
        if value.is_empty() {
            value = vec![terminal; n * width];
        }
        let held_rows = || members.clone().filter(|r| walking >> (r - chunk) & 1 == 1);
        for r in held_rows() {
            let (cols, vals) = u.row(r);
            for (&j, &v) in cols.iter().zip(vals) {
                held[j] |= 1 << (r - chunk);
                value[j * width + r - chunk] = v;
            }
        }
        rows.sort_unstable();
        let mut acc: [Option<T>; 64] = [None; 64];
        for &i in &rows {
            let mut left = std::mem::take(&mut pending[i]);
            let mut live = left;
            while live != 0 {
                acc[live.trailing_zeros() as usize] = None;
                live &= live - 1;
            }
            let (cols, vals) = a.row(i);
            for (q, (&j, &aij)) in cols.iter().zip(vals).enumerate() {
                let mut hits = held[j] & left;
                while hits != 0 {
                    let m = hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    let term = mul.apply(aij, value[j * width + m]);
                    let next = acc[m].map_or(term, |v| add.apply(v, term));
                    acc[m] = Some(next);
                    if next == terminal {
                        left &= !(1 << m);
                        if q + 1 < cols.len() {
                            exits[chunk + m].push((i, q + 1));
                        }
                    }
                }
                if left == 0 {
                    break;
                }
            }
        }
        rows.clear();
        for r in held_rows() {
            u.row(r).0.iter().for_each(|&j| held[j] = 0);
        }
    }
    exits
}

/// The first position of sorted `s` holding at least `x`, searched from
/// the front in doubling steps: O(log p) for an answer at `p`.
fn gallop(s: &[usize], x: usize) -> usize {
    let (mut lo, mut step) = (0, 1);
    while lo + step < s.len() && s[lo + step] < x {
        lo += step;
        step *= 2;
    }
    lo + s[lo..(lo + step + 1).min(s.len())].partition_point(|&y| y < x)
}

/// [`row_dot`] over `(value, present)` slots, with no branch on presence:
/// every entry computes a term and the fold keeps it or not by select, so a
/// row whose operand positions are half present costs what a fully present
/// one does. The same bits and the same count as [`row_dot`]: a row's
/// first present term seeds the fold as it is, and the exit test fires
/// first at the present term that reached the terminal.
///
/// An absent entry computes only what cannot fail: `⊗` of the `safe` pair,
/// a product the presence-testing fold of the same call computes too (see
/// [`RowFold`]; every absent slot holds its operand value), and `⊕` of the
/// accumulator with the monoid's identity, which the identity law makes
/// the accumulator. Both results are thrown away.
#[inline]
fn slot_dot<T, D1, S>(
    sr: S,
    cols: &[usize],
    vals: &[D1],
    slots: &[(T, bool)],
    safe: (D1, T),
) -> (Option<T>, usize)
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let (add, mul) = (sr.add(), sr.mul());
    let (terminal, identity) = (add.terminal(), add.identity());
    let (mut acc, mut have) = (identity, false);
    for (q, (&j, &aij)) in cols.iter().zip(vals).enumerate() {
        let (uj, present) = slots[j];
        let term = mul.apply(select_unpredictable(present, aij, safe.0), uj);
        let next = if have {
            add.apply(acc, select_unpredictable(present, term, identity))
        } else {
            term
        };
        acc = select_unpredictable(present, next, acc);
        have |= present;
        if terminal.is_some_and(|t| have && acc == t) {
            return (Some(acc), q + 1);
        }
    }
    (have.then_some(acc), cols.len())
}

/// [`row_dot`] over an operand whose every position is present, read as
/// its plain values: no presence test and a plain accumulator. The row's
/// first term seeds the fold as it is, never `identity ⊕ term` — the
/// identity law holds only up to bits (`0.0 + -0.0` is `0.0`) — and the
/// exit test follows every term, so the same bits and the same count as
/// [`row_dot`].
#[inline]
fn full_dot<T, D1, S>(sr: S, cols: &[usize], vals: &[D1], u: &[T]) -> (Option<T>, usize)
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let (add, mul) = (sr.add(), sr.mul());
    let terminal = add.terminal();
    let term = |j: usize, aij: D1| mul.apply(aij, u[j]);
    let mut entries = cols.iter().zip(vals);
    let Some((&j, &aij)) = entries.next() else {
        return (None, 0);
    };
    let mut acc = term(j, aij);
    for (q, (&j, &aij)) in entries.enumerate() {
        if terminal.is_some_and(|t| acc == t) {
            return (Some(acc), q + 1);
        }
        acc = add.apply(acc, term(j, aij));
    }
    (Some(acc), cols.len())
}

/// Presence shares of `u`, in 64ths, between which pull folds over slots
/// (inclusive). Measured, `(min, +)` over `u32` (ADR 0004): the `Option`
/// fold costs 1.2–1.8 ns an entry near 0 % presence and 5.5–6.9 at 50 %,
/// where the slot fold costs 2.3 on rmat rows and 3.6–5.3 on torus rows
/// (four entries: the row's loop exit mispredicts in either fold). Slots
/// win from 8/64 to 60/64 on rmat12/rmat14, from 16/64 to 48/64 on
/// torus64/torus128, and lose up to 25 % outside that. At 64/64 neither
/// runs: the full fold does (ADR 0017).
const SLOT_BAND: (usize, usize) = (16, 48);

/// Whether the slot fold was measured to beat the `Option` fold for
/// semiring `S` over matrix entries `D1` (ADR 0004): only SSSP's `(min, +)`
/// over `u32`, where the selects lower to conditional moves. Not floats —
/// x86 has no conditional move into a floating-point register, so the
/// select becomes a branch that mispredicts as the `Option` fold does, and
/// the slot fold ran 10–17 % behind — nor `bool`'s `(∨, ∧)`, which ends a
/// row at its first present term, so either fold mispredicts about once a
/// row and slots ran 3–12 % behind. MIS's `(min, second)` over `u64` read
/// flat end to end, so it keeps [`row_dot`].
fn slots_pay<S: 'static, D1: 'static>() -> bool {
    use std::any::TypeId;
    TypeId::of::<(S, D1)>() == TypeId::of::<(MinPlus<u32>, u32)>()
}

/// Which fold a [`RowFold`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldKind {
    /// [`row_dot`]: a presence test per entry, an `Option` accumulator.
    Options,
    /// Branch-free `(value, present)` slots.
    Slots,
    /// Every position of `u` present: its plain values, no presence test.
    Full,
}

/// The fold a [`RowFold`] runs, with what it folds over beyond `u`.
#[derive(Debug)]
enum Fold<T, D1> {
    Options,
    /// `(value, present)` per position of `u`, and the safe pair.
    Slots(Vec<(T, bool)>, (D1, T)),
    /// `u`'s values, read in place.
    Full,
}

/// The row fold of one pull product `A ⊕.⊗ u` under a keep `mask`, chosen
/// once per call (ADR 0017): the full fold, over `u`'s values as they are
/// stored, when every position of `u` is present; `slot_dot` over a slot
/// array built from `u` when its presence share lies in `SLOT_BAND` and
/// `slots_pay` for `S`; the [`row_dot`] fold otherwise. The
/// sequential and parallel `mxv` and both of cuda-sim's SpMV kernels fold
/// every row through one of these; which fold ran never shows in a result
/// or a count.
#[derive(Debug)]
pub struct RowFold<'a, T, D1, S> {
    sr: S,
    a: &'a CsrMatrix<D1>,
    mask: Option<VecMask<'a>>,
    u: &'a DenseVector<T>,
    fold: Fold<T, D1>,
}

impl<'a, T, D1, S> RowFold<'a, T, D1, S>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    /// The fold `u`'s presence share picks.
    pub fn new(
        sr: S,
        a: &'a CsrMatrix<D1>,
        u: &'a DenseVector<T>,
        mask: Option<VecMask<'a>>,
    ) -> Self {
        if u.nnz() == u.len() {
            return Self::full(sr, a, u, mask);
        }
        let fold = Self::checked(sr, a, u, mask);
        let (lo, hi) = SLOT_BAND;
        let share = u.nnz() * 64;
        if slots_pay::<S, D1>() && (lo * u.len()..=hi * u.len()).contains(&share) {
            fold.into_slots()
        } else {
            fold
        }
    }

    /// The full fold: what the fold's properties compare with [`row_dot`].
    /// Panics unless every position of `u` is present.
    pub fn full(
        sr: S,
        a: &'a CsrMatrix<D1>,
        u: &'a DenseVector<T>,
        mask: Option<VecMask<'a>>,
    ) -> Self {
        assert_eq!(u.nnz(), u.len(), "the full fold reads every position of u");
        Self {
            fold: Fold::Full,
            ..Self::checked(sr, a, u, mask)
        }
    }

    /// The slot fold, whatever `u`'s share: what the fold's properties
    /// compare with [`row_dot`].
    pub fn slots(
        sr: S,
        a: &'a CsrMatrix<D1>,
        u: &'a DenseVector<T>,
        mask: Option<VecMask<'a>>,
    ) -> Self {
        Self::checked(sr, a, u, mask).into_slots()
    }

    fn checked(
        sr: S,
        a: &'a CsrMatrix<D1>,
        u: &'a DenseVector<T>,
        mask: Option<VecMask<'a>>,
    ) -> Self {
        assert_eq!(
            a.ncols(),
            u.len(),
            "mxv dimension mismatch: {}x{} * len {}",
            a.nrows(),
            a.ncols(),
            u.len()
        );
        if let Some(keep) = mask {
            assert_eq!(keep.len(), a.nrows(), "mask length must equal output size");
        }
        Self {
            sr,
            a,
            mask,
            u,
            fold: Fold::Options,
        }
    }

    /// Slots over this fold's `u`. The safe pair is the first entry, in
    /// the rows the mask keeps, at a present position, with that position's
    /// value: the first product the [`row_dot`] fold computes. An absent
    /// position's slot holds the same value, so an absent entry's `⊗` only
    /// ever repeats that product. A product with no such entry has no
    /// present term to fold: it keeps the [`row_dot`] fold.
    fn into_slots(self) -> Self {
        let u = self.u;
        let safe = (0..self.a.nrows())
            .filter(|&i| self.keeps(i))
            .find_map(|i| {
                let (cols, vals) = self.a.row(i);
                let q = cols.iter().position(|&j| u.contains(j))?;
                Some((vals[q], u.values()[cols[q]]))
            });
        let Some(safe) = safe else {
            return self;
        };
        let slot = |(j, &v): (usize, &T)| {
            let present = u.contains(j);
            (select_unpredictable(present, v, safe.1), present)
        };
        let slots = u.values().iter().enumerate().map(slot).collect();
        Self {
            fold: Fold::Slots(slots, safe),
            ..self
        }
    }

    /// The fold this call runs.
    pub fn kind(&self) -> FoldKind {
        match self.fold {
            Fold::Options => FoldKind::Options,
            Fold::Slots(..) => FoldKind::Slots,
            Fold::Full => FoldKind::Full,
        }
    }

    /// Whether row `i` is folded at all: the mask keeps it.
    #[inline]
    fn keeps(&self, i: usize) -> bool {
        self.mask.is_none_or(|keep| keep.keeps(i))
    }

    /// Row `i`'s fold: what [`row_dot`] returns for it.
    #[inline]
    pub fn row(&self, i: usize) -> (Option<T>, usize) {
        let (cols, vals) = self.a.row(i);
        match &self.fold {
            Fold::Options => row_dot(self.sr, cols, vals, self.u),
            Fold::Slots(slots, safe) => slot_dot(self.sr, cols, vals, slots, *safe),
            Fold::Full => full_dot(self.sr, cols, vals, self.u.values()),
        }
    }

    /// Positions `rows` of the product, as a vector of `rows.len()` entries
    /// (position `i` at `i - rows.start`); rows the mask does not keep are
    /// not visited and stay absent.
    pub fn mxv_rows(&self, rows: Range<usize>) -> DenseVector<T> {
        // one loop per fold, so the choice is made once and not per row;
        // the operands are copied out of `self` for the loop to keep
        let (sr, u) = (self.sr, self.u);
        match &self.fold {
            Fold::Options => self.fold_rows(rows, move |cols, vals| row_dot(sr, cols, vals, u)),
            Fold::Slots(slots, safe) => self.fold_rows(rows, move |cols, vals| {
                slot_dot(sr, cols, vals, slots, *safe)
            }),
            Fold::Full => {
                let values = u.values();
                self.fold_rows(rows, move |cols, vals| full_dot(sr, cols, vals, values))
            }
        }
    }

    /// The rows `rows` the mask keeps, each folded by `dot`.
    #[inline(always)]
    fn fold_rows(
        &self,
        rows: Range<usize>,
        dot: impl Fn(&[usize], &[D1]) -> (Option<T>, usize),
    ) -> DenseVector<T> {
        // the arrays are read once, not per row through the matrix's
        // shared structure (a masked rmat14 pull ran ≈ 10 % faster so)
        let (row_ptr, col_idx, vals) = (self.a.row_ptr(), self.a.col_idx(), self.a.vals());
        DenseVector::from_fn(rows.len(), |k| {
            let i = rows.start + k;
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            self.keeps(i)
                .then(|| dot(&col_idx[lo..hi], &vals[lo..hi]).0)
                .flatten()
        })
    }
}

/// Pull-direction product `w = A ⊕.⊗ u`.
///
/// `mask`, when present, is a keep test over output positions: rows it does
/// not keep are not even visited, so the result holds kept positions only.
///
/// The matrix's value domain `D1` is the semiring's first operand domain; it
/// need not be `T` (a boolean adjacency under `MinSecond<u64>`).
pub fn mxv<T, D1, S>(
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> DenseVector<T>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    RowFold::new(sr, a, u, mask).mxv_rows(0..a.nrows())
}

/// The accumulate loop of push [`vxm`]: folds `uᵀA` into `acc` over the
/// positions `mask` keeps, calling `first(j)` when position `j` receives its
/// first term. The mask test is hoisted out of the edge loop.
#[inline(always)]
fn scatter<T, D2, S>(
    u: &SparseVector<T>,
    a: &CsrMatrix<D2>,
    sr: S,
    mask: Option<VecMask<'_>>,
    acc: &mut [Option<T>],
    mut first: impl FnMut(usize),
) where
    T: Scalar,
    D2: Scalar,
    S: Semiring<T, T, D2>,
{
    let (add, mul) = (sr.add(), sr.mul());
    for (k, uk) in u.iter() {
        let (cols, vals) = a.row(k);
        let mut fold = |j: usize, akj: D2| {
            let term = mul.apply(uk, akj);
            match &mut acc[j] {
                Some(v) => *v = add.apply(*v, term),
                slot @ None => {
                    *slot = Some(term);
                    first(j);
                }
            }
        };
        match mask {
            None => {
                for (&j, &akj) in cols.iter().zip(vals) {
                    fold(j, akj);
                }
            }
            Some(keep) => {
                for (&j, &akj) in cols.iter().zip(vals) {
                    if keep.keeps(j) {
                        fold(j, akj);
                    }
                }
            }
        }
    }
}

/// Push-direction product `w = uᵀ ⊕.⊗ A` over a sparse `u`.
///
/// Only rows of `A` selected by stored entries of `u` are touched — the
/// frontier-expansion step of push BFS/SSSP. `mask` filters output
/// positions: the result holds kept positions only. First touches set
/// presence bits, drained in index order into an output of exactly its size.
/// Here the matrix's value domain `D2` is the semiring's *second* operand
/// domain (`MinFirst<u64>` over a boolean adjacency).
pub fn vxm<T, D2, S>(
    u: &SparseVector<T>,
    a: &CsrMatrix<D2>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> SparseVector<T>
where
    T: Scalar,
    D2: Scalar,
    S: Semiring<T, T, D2>,
{
    assert_eq!(
        u.len(),
        a.nrows(),
        "vxm dimension mismatch: len {} * {}x{}",
        u.len(),
        a.nrows(),
        a.ncols()
    );
    if let Some(keep) = mask {
        assert_eq!(keep.len(), a.ncols(), "mask length must equal output size");
    }
    let n = a.ncols();
    // Pooled scratch: draining with `take()` restores the accumulator's
    // all-None return invariant, and the drain clears the words it reads.
    workspace::with_accumulator(n, |acc: &mut Vec<Option<T>>| {
        Touched::with(n, |touched| {
            scatter(u, a, sr, mask, acc, |j| touched.mark(j));
            let mut idx = Vec::with_capacity(touched.count);
            let mut vals = Vec::with_capacity(touched.count);
            touched.drain(|j| {
                idx.push(j);
                vals.push(acc[j].take().expect("marked implies present"));
            });
            SparseVector::from_sorted(n, idx, vals).expect("index-order drain")
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{LorLand, MinPlus, PlusTimes};
    use gbtl_sparse::CooMatrix;

    fn adj() -> CsrMatrix<i64> {
        // 0 -> 1 (w 3), 0 -> 2 (w 1), 1 -> 2 (w 1), 2 -> 0 (w 2)
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 3);
        coo.push(0, 2, 1);
        coo.push(1, 2, 1);
        coo.push(2, 0, 2);
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn mxv_plus_times() {
        let a = adj();
        let mut u = DenseVector::new(3);
        u.set(0, 1i64);
        u.set(1, 10);
        u.set(2, 100);
        let w = mxv(&a, &u, PlusTimes::<i64>::new(), None);
        // w0 = 3*10 + 1*100 = 130; w1 absent? no: row1 has edge to 2 -> 1*100
        assert_eq!(w.get(0), Some(130));
        assert_eq!(w.get(1), Some(100));
        assert_eq!(w.get(2), Some(2));
    }

    #[test]
    fn mxv_absent_inputs_produce_absent_outputs() {
        let a = adj();
        let mut u = DenseVector::new(3);
        u.set(0, 5i64); // only vertex 0 has a value
        let w = mxv(&a, &u, PlusTimes::<i64>::new(), None);
        // only row 2 has an edge into 0
        assert_eq!(w.get(0), None);
        assert_eq!(w.get(1), None);
        assert_eq!(w.get(2), Some(10));
    }

    #[test]
    fn mxv_mask_skips_rows() {
        let a = adj();
        let u = DenseVector::filled(3, 1i64);
        let mut keep = DenseVector::new(3);
        keep.set(0, true);
        keep.set(2, true);
        let w = mxv(
            &a,
            &u,
            PlusTimes::<i64>::new(),
            Some(VecMask::new(&keep, false)),
        );
        assert!(w.get(0).is_some());
        assert_eq!(w.get(1), None);
        assert!(w.get(2).is_some());
    }

    #[test]
    fn vxm_pushes_frontier() {
        let a = adj();
        let mut u = SparseVector::new(3);
        u.set(0, true);
        // boolean reachability: neighbours of 0 are {1, 2}
        let mut ab = CooMatrix::new(3, 3);
        for (i, j, _) in a.iter() {
            ab.push(i, j, true);
        }
        let ab = CsrMatrix::from_coo(ab, |x, _| x);
        let w = vxm(&u, &ab, LorLand::new(), None);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(1, true), (2, true)]);
    }

    #[test]
    fn vxm_min_plus_relaxes() {
        let a = adj();
        let mut dist = SparseVector::new(3);
        dist.set(0, 0i64);
        let w = vxm(&dist, &a, MinPlus::<i64>::new(), None);
        assert_eq!(w.get(1), Some(3));
        assert_eq!(w.get(2), Some(1));
        assert_eq!(w.get(0), None);
    }

    #[test]
    fn vxm_mask_filters_outputs() {
        let a = adj();
        let mut u = SparseVector::new(3);
        u.set(0, 1i64);
        let mut visited = DenseVector::new(3);
        visited.set(2, true);
        let w = vxm(
            &u,
            &a,
            PlusTimes::<i64>::new(),
            Some(VecMask::new(&visited, false)),
        );
        assert_eq!(w.nnz(), 1);
        assert_eq!(w.get(2), Some(1));
        // the same positions, plain and complemented
        for (complement, want) in [(false, vec![(2, 1)]), (true, vec![(1, 3)])] {
            let mask = VecMask::new(&visited, complement);
            let w = vxm(&u, &a, PlusTimes::<i64>::new(), Some(mask));
            assert_eq!(w.iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn push_and_pull_agree() {
        // w = uᵀA computed by vxm must equal mxv with Aᵀ.
        let a = adj();
        let at = a.transpose();
        let mut u = SparseVector::new(3);
        u.set(0, 2i64);
        u.set(2, 4);
        let push = vxm(&u, &a, PlusTimes::<i64>::new(), None);
        let pull = mxv(&at, &u.to_dense(), PlusTimes::<i64>::new(), None);
        assert_eq!(push.to_dense(), pull);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mxv_bad_shape_panics() {
        let a = adj();
        let u = DenseVector::<i64>::new(5);
        let _ = mxv(&a, &u, PlusTimes::<i64>::new(), None);
    }
}
