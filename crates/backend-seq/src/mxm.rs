//! Sparse matrix–matrix multiply: Gustavson's row-wise algorithm.

use crate::rows::{RowChunk, Touched};
use gbtl_algebra::{BinaryOp, Monoid, Scalar, Semiring};
use gbtl_sparse::CsrMatrix;
use gbtl_util::workspace;
use std::ops::Range;

/// `C = A ⊕.⊗ B` over the semiring — Gustavson's algorithm with a dense
/// per-row accumulator drained by its presence bits (`O(flops +
/// nrows·ncols/4096)` time, `O(ncols)` workspace).
///
/// # Panics
/// When the inner dimensions disagree (`a.ncols() != b.nrows()`); the
/// frontend validates shapes before dispatch.
pub fn mxm<T, D1, D2, S>(a: &CsrMatrix<D1>, b: &CsrMatrix<D2>, sr: S) -> CsrMatrix<T>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    mxm_rows(a, b, sr, 0..a.nrows()).into_matrix(b.ncols())
}

/// Rows `rows` of [`mxm`]'s product.
pub fn mxm_rows<T, D1, D2, S>(
    a: &CsrMatrix<D1>,
    b: &CsrMatrix<D2>,
    sr: S,
    rows: Range<usize>,
) -> RowChunk<T>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "mxm inner dimension mismatch: {}x{} * {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let n = b.ncols();

    // The accumulator and its presence words come from the thread-local
    // workspace pool: per-row `take()` drains leave the accumulator
    // all-None and the words zero, which is the pool's return invariant.
    workspace::with_accumulator(n, |acc: &mut Vec<Option<T>>| {
        Touched::with(n, |touched| {
            let mut row_ptr = Vec::with_capacity(rows.len() + 1);
            row_ptr.push(0usize);
            let mut col_idx = Vec::new();
            let mut vals = Vec::new();
            for i in rows {
                fold_row(a, b, sr, i, acc, |j| touched.mark(j));
                touched.drain(|j| {
                    col_idx.push(j);
                    vals.push(acc[j].take().expect("marked implies present"));
                });
                row_ptr.push(col_idx.len());
            }
            RowChunk::from_parts(row_ptr, col_idx, vals)
        })
    })
}

/// Fold row `i` of `A ⊕.⊗ B` into `acc` in scan order, calling `first(j)`
/// when column `j` receives its first term.
#[inline(always)]
fn fold_row<T, D1, D2, S>(
    a: &CsrMatrix<D1>,
    b: &CsrMatrix<D2>,
    sr: S,
    i: usize,
    acc: &mut [Option<T>],
    mut first: impl FnMut(usize),
) where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    let (add, mul) = (sr.add(), sr.mul());
    let (a_cols, a_vals) = a.row(i);
    for (&k, &aik) in a_cols.iter().zip(a_vals) {
        let (b_cols, b_vals) = b.row(k);
        for (&j, &bkj) in b_cols.iter().zip(b_vals) {
            let term = mul.apply(aik, bkj);
            match &mut acc[j] {
                Some(v) => *v = add.apply(*v, term),
                slot @ None => {
                    *slot = Some(term);
                    first(j);
                }
            }
        }
    }
}

/// Masked multiply: `C<M> = A ⊕.⊗ B`, computing **only** the entries present
/// in the structural mask `M` (the triangle-counting kernel shape).
///
/// Same Gustavson traversal, but terms accumulate only into positions the
/// mask row marks, so the output never exceeds `nnz(M)` and needs no sort.
pub fn mxm_masked<T, D1, D2, S>(
    mask: &CsrMatrix<bool>,
    a: &CsrMatrix<D1>,
    b: &CsrMatrix<D2>,
    sr: S,
) -> CsrMatrix<T>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    mxm_masked_rows(mask, a, b, sr, 0..a.nrows()).into_matrix(b.ncols())
}

/// Rows `rows` of [`mxm_masked`]'s product.
///
/// The accumulator holds a `T` per column at the add monoid's identity and
/// two flags: the mask row allows the column, the column has had its first
/// term. Rows are folded in blocks of `ROW_BLOCK`, each block by one of
/// two loops over that scratch, chosen by the share of scanned entries that
/// landed in the mask over the sampled blocks already done
/// (`SELECT_HIT_SHARE`, `SAMPLE_EVERY`):
///
/// * **branch** — `if allowed[j]` around the update, reading a compact
///   flag array: cheapest where hits are rare and the branch predicts (the
///   triangle product on ER graphs: ≈ 0.2 % of entries);
/// * **select** — every scanned entry runs the update, and the mask test and
///   the first touch are selects: `acc = allowed ? (hit ? acc ⊕ t : t) :
///   acc`. Nothing to mispredict where hits and misses mix (RMAT: ≈ 14 %).
///
/// Both produce the same bits. A position's first term seeds it as it is
/// (`hit` picks `t`, not `identity ⊕ t`, which differs for `-0.0` and `NaN`),
/// and the fold runs in scan order either way. The only `⊕` the select loop
/// computes outside the mask is `identity ⊕ t`, discarded: it cannot
/// overflow and is never kept. Like the unmasked product, the select loop
/// evaluates `⊗` on every pair it scans.
pub fn mxm_masked_rows<T, D1, D2, S>(
    mask: &CsrMatrix<bool>,
    a: &CsrMatrix<D1>,
    b: &CsrMatrix<D2>,
    sr: S,
    rows: Range<usize>,
) -> RowChunk<T>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    assert_eq!(a.ncols(), b.nrows(), "mxm inner dimension mismatch");
    assert_eq!(
        (mask.nrows(), mask.ncols()),
        (a.nrows(), b.ncols()),
        "mask shape must equal output shape"
    );
    let clear = Slot {
        acc: sr.add().identity(),
        state: 0,
    };
    let n = b.ncols();

    // Both scratch arrays come from the workspace pool; the drain over each
    // mask row restores their all-false / all-clear return invariants.
    workspace::with_flags(n, |allowed| {
        workspace::with_values(n, clear, |slots| {
            let mut kernel = MaskedKernel {
                mask,
                a,
                b,
                sr,
                allowed,
                slots,
                row_ptr: Vec::with_capacity(rows.len() + 1),
                col_idx: Vec::new(),
                vals: Vec::new(),
            };
            kernel.row_ptr.push(0usize);
            let (mut scanned, mut hits) = (0usize, 0usize);
            for (nth, start) in rows.clone().step_by(ROW_BLOCK).enumerate() {
                let block = start..(start + ROW_BLOCK).min(rows.end);
                let block_hits = if hits * SELECT_HIT_SHARE > scanned {
                    kernel.fold::<true>(block.clone())
                } else {
                    kernel.fold::<false>(block.clone())
                };
                if nth % SAMPLE_EVERY == 0 {
                    hits += block_hits;
                    scanned += block
                        .filter(|&i| !mask.row(i).0.is_empty())
                        .flat_map(|i| a.row(i).0)
                        .map(|&k| b.row_nnz(k))
                        .sum::<usize>();
                }
            }
            RowChunk::from_parts(kernel.row_ptr, kernel.col_idx, kernel.vals)
        })
    })
}

/// Rows per block of the masked kernel: each block runs the loop the rows
/// before it chose, so the choice follows the input, and its cost — one
/// call and one comparison — is spread over the block's rows.
const ROW_BLOCK: usize = 64;

/// Every this-many-th block also counts its scanned entries, in a walk over
/// its `A` rows after the fold, and adds them and its hits to the share the
/// next blocks choose by; the first block of a call always counts. Counting
/// inside the fold cost the branch loop 2–7 % (EXPERIMENTS.md R-M25).
const SAMPLE_EVERY: usize = 16;

/// A block runs the select loop once more than one sampled scanned entry
/// in this many has landed in the mask (the first block, with no sample
/// yet, runs the branch loop). Measured (R-M25, `C<L> = L·L`):
/// the branch loop wins at 0.2 % (er13) and 3.1 % (er11, 32 edges a
/// vertex), the select loop at 14 % (rmat13, 1.5–1.6×) and above.
const SELECT_HIT_SHARE: usize = 16;

/// One accumulator column of the masked product: its running value, whether
/// it has had its first term ([`HIT`]) and — in a block the select loop
/// folds — whether the mask row allows it ([`ALLOWED`]), read in the same
/// cache line as the value. Clear is the add monoid's identity, no flag.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot<T> {
    acc: T,
    state: u8,
}

const ALLOWED: u8 = 1;
const HIT: u8 = 2;

/// [`mxm_masked_rows`]'s operands, scratch and output so far.
struct MaskedKernel<'a, T, D1, D2, S> {
    mask: &'a CsrMatrix<bool>,
    a: &'a CsrMatrix<D1>,
    b: &'a CsrMatrix<D2>,
    sr: S,
    /// The current mask row's columns, for the branch loop.
    allowed: &'a mut [bool],
    slots: &'a mut [Slot<T>],
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<T>,
}

impl<T, D1, D2, S> MaskedKernel<'_, T, D1, D2, S>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    /// Fold and emit the rows `block`, with selects (`SELECT`) or behind a
    /// branch; the number of scanned entries that landed in the mask. Not
    /// inlined: each loop gets the registers to itself.
    #[inline(never)]
    fn fold<const SELECT: bool>(&mut self, block: Range<usize>) -> usize {
        let (add, mul) = (self.sr.add(), self.sr.mul());
        let clear = Slot {
            acc: add.identity(),
            state: 0,
        };
        let (allowed, slots) = (&mut *self.allowed, &mut *self.slots);
        let mut hits = 0usize;
        for i in block {
            let m_cols = self.mask.row(i).0;
            if m_cols.is_empty() {
                self.row_ptr.push(self.col_idx.len());
                continue;
            }
            for &j in m_cols {
                if SELECT {
                    slots[j].state = ALLOWED;
                } else {
                    allowed[j] = true;
                }
            }
            let (a_cols, a_vals) = self.a.row(i);
            for (&k, &aik) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = self.b.row(k);
                for (&j, &bkj) in b_cols.iter().zip(b_vals) {
                    if SELECT {
                        let slot = &mut slots[j];
                        let Slot { acc, state } = *slot;
                        let term = mul.apply(aik, bkj);
                        let sum = add.apply(acc, term);
                        let next = if state & HIT != 0 { sum } else { term };
                        let in_mask = state & ALLOWED;
                        slot.acc = if in_mask != 0 { next } else { acc };
                        slot.state = state | (in_mask * HIT);
                        hits += in_mask as usize;
                    } else if allowed[j] {
                        let slot = &mut slots[j];
                        let term = mul.apply(aik, bkj);
                        slot.acc = if slot.state & HIT != 0 {
                            add.apply(slot.acc, term)
                        } else {
                            term
                        };
                        slot.state = HIT;
                        hits += 1;
                    }
                }
            }
            // mask rows are sorted, so output stays sorted
            for &j in m_cols {
                allowed[j] = false;
                let slot = &mut slots[j];
                if slot.state != 0 {
                    if slot.state & HIT != 0 {
                        self.col_idx.push(j);
                        self.vals.push(slot.acc);
                    }
                    *slot = clear;
                }
            }
            self.row_ptr.push(self.col_idx.len());
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{MinPlus, PlusTimes};
    use gbtl_sparse::CooMatrix;

    fn from_dense(d: &[&[i64]]) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(d.len(), d[0].len());
        for (i, row) in d.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0 {
                    coo.push(i, j, v);
                }
            }
        }
        CsrMatrix::from_coo(coo, |x, _| x)
    }

    #[test]
    fn mxm_matches_dense_arithmetic() {
        let a = from_dense(&[&[1, 2, 0], &[0, 0, 3]]);
        let b = from_dense(&[&[1, 0], &[0, 1], &[2, 2]]);
        let c = mxm(&a, &b, PlusTimes::<i64>::new());
        assert_eq!((c.nrows(), c.ncols()), (2, 2));
        assert_eq!(c.get(0, 0), Some(1));
        assert_eq!(c.get(0, 1), Some(2));
        assert_eq!(c.get(1, 0), Some(6));
        assert_eq!(c.get(1, 1), Some(6));
        c.validate().unwrap();
    }

    #[test]
    fn mxm_respects_sparsity() {
        // A row with no entries produces an empty output row, even though a
        // dense computation would produce zeros.
        let a = from_dense(&[&[0, 0], &[1, 0]]);
        let b = from_dense(&[&[0, 7], &[0, 0]]);
        let c = mxm(&a, &b, PlusTimes::<i64>::new());
        assert_eq!(c.row_nnz(0), 0);
        assert_eq!(c.get(1, 1), Some(7));
    }

    #[test]
    fn mxm_min_plus_composes_paths() {
        // adjacency as distances; A^2 gives 2-hop shortest distances
        let inf = 0; // absent = no edge
        let _ = inf;
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 5i64);
        coo.push(1, 2, 7);
        coo.push(0, 2, 100);
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let c = mxm(&a, &a, MinPlus::<i64>::new());
        // path 0->1->2 = 12
        assert_eq!(c.get(0, 2), Some(12));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mxm_shape_mismatch_panics() {
        let a = from_dense(&[&[1, 2]]);
        let b = from_dense(&[&[1, 2]]);
        let _ = mxm(&a, &b, PlusTimes::<i64>::new());
    }

    #[test]
    fn masked_mxm_equals_filtered_full_mxm() {
        let a = from_dense(&[&[1, 2, 0], &[3, 0, 4], &[0, 5, 6]]);
        let b = from_dense(&[&[1, 0, 2], &[0, 3, 0], &[4, 0, 5]]);
        let full = mxm(&a, &b, PlusTimes::<i64>::new());

        // mask: keep main diagonal + (0,2)
        let mut mcoo = CooMatrix::new(3, 3);
        for i in 0..3 {
            mcoo.push(i, i, true);
        }
        mcoo.push(0, 2, true);
        let mask = CsrMatrix::from_coo(mcoo, |x, _| x);

        let masked = mxm_masked(&mask, &a, &b, PlusTimes::<i64>::new());
        masked.validate().unwrap();
        for (i, j, v) in masked.iter() {
            assert_eq!(full.get(i, j), Some(v), "wrong value at ({i},{j})");
            assert!(mask.get(i, j).is_some(), "entry outside mask at ({i},{j})");
        }
        // every masked position that the full product populated must appear
        for (i, j, _) in mask.iter() {
            assert_eq!(masked.get(i, j), full.get(i, j));
        }
    }

    /// `A` (4×4) and `B` (4×6) with the given values on a fixed structure
    /// whose product rows range from dense to empty: row 0 scans 9 ≥ 6
    /// entries of `B`, row 3 exactly 6; row 1 scans 5 and first touches 0,
    /// 2, 4, 1, 5 in that order (drained ascending); row 2 scans 0.
    fn sweep_operands<T: Scalar>(va: [T; 8], vb: [T; 9]) -> (CsrMatrix<T>, CsrMatrix<T>) {
        let a = CsrMatrix::from_parts(
            4,
            4,
            vec![0, 3, 5, 6, 8],
            vec![0, 1, 2, 0, 2, 3, 1, 2],
            va.to_vec(),
        )
        .unwrap();
        let b = CsrMatrix::from_parts(
            4,
            6,
            vec![0, 3, 7, 9, 9],
            vec![0, 2, 4, 1, 2, 3, 5, 1, 5],
            vb.to_vec(),
        )
        .unwrap();
        let scanned: Vec<usize> = (0..4)
            .map(|i| a.row(i).0.iter().map(|&k| b.row_nnz(k)).sum())
            .collect();
        assert_eq!(scanned, [9, 5, 0, 6]);
        (a, b)
    }

    /// Per row, a dense fold in scan order, emitted by ascending column.
    fn dense_reference<T: Scalar, S: Semiring<T>>(
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        sr: S,
    ) -> Vec<Vec<(usize, T)>> {
        (0..a.nrows())
            .map(|i| {
                let mut row = vec![None; b.ncols()];
                for (&k, &aik) in a.row(i).0.iter().zip(a.row(i).1) {
                    for (&j, &bkj) in b.row(k).0.iter().zip(b.row(k).1) {
                        let term = sr.mul().apply(aik, bkj);
                        row[j] = Some(row[j].map_or(term, |v| sr.add().apply(v, term)));
                    }
                }
                (0..b.ncols()).filter_map(|j| Some((j, row[j]?))).collect()
            })
            .collect()
    }

    fn assert_sweep_rule_matches_reference<T: Scalar, S: Semiring<T>>(
        sr: S,
        va: [T; 8],
        vb: [T; 9],
        bits: impl Fn(T) -> u64,
    ) {
        let (a, b) = sweep_operands(va, vb);
        let c = mxm(&a, &b, sr);
        c.validate().unwrap();
        let want = dense_reference(&a, &b, sr);
        for (i, want) in want.iter().enumerate() {
            let (cols, vals) = c.row(i);
            let got: Vec<(usize, u64)> =
                cols.iter().zip(vals).map(|(&j, &v)| (j, bits(v))).collect();
            let want: Vec<(usize, u64)> = want.iter().map(|&(j, v)| (j, bits(v))).collect();
            assert_eq!(got, want, "row {i}");
        }
    }

    #[test]
    fn swept_and_sorted_rows_match_a_dense_reference_bit_for_bit() {
        use gbtl_algebra::LorLand;
        let t = true;
        assert_sweep_rule_matches_reference(
            LorLand::new(),
            [t, t, false, t, t, false, t, t],
            [t, false, t, t, t, false, t, t, t],
            |v| v as u64,
        );
        assert_sweep_rule_matches_reference(
            MinPlus::<u32>::new(),
            [3, 1, 4, 1, 5, 9, 2, 6],
            [5, 3, 5, 8, 9, 7, 9, 3, 2],
            u64::from,
        );
        // -0.0 and NaNs of two payloads: a fold out of scan order, or a
        // first term seeded as `0.0 ⊕ t`, changes the bits
        let (nan1, nan2) = (
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0x7ff8_0000_0000_0002),
        );
        assert_sweep_rule_matches_reference(
            PlusTimes::<f64>::new(),
            [-0.0, 1.5, nan1, 2.0, -1.0, 7.0, -0.0, nan2],
            [-0.0, 3.0, -2.5, nan2, -0.0, 1.0, -4.0, 0.25, nan1],
            f64::to_bits,
        );
    }

    #[test]
    fn masked_mxm_empty_mask_gives_empty_result() {
        let a = from_dense(&[&[1, 1], &[1, 1]]);
        let mask = CsrMatrix::<bool>::new(2, 2);
        let c = mxm_masked(&mask, &a, &a, PlusTimes::<i64>::new());
        assert_eq!(c.nnz(), 0);
    }
}

/// Kronecker product `C = A ⊗ B` with an elementwise combine `mul`:
/// `C(i·p + k, j·q + l) = mul(A(i,j), B(k,l))` for an `m×n` `A` and a
/// `p×q` `B`. The Graph500 Kronecker generator is repeated `kron` of a
/// seed matrix.
pub fn kronecker<T, Op>(a: &CsrMatrix<T>, b: &CsrMatrix<T>, mul: Op) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    let (p, q) = (b.nrows(), b.ncols());
    let m = a.nrows() * p;
    let n = a.ncols() * q;
    let nnz = a.nnz() * b.nnz();
    let mut row_ptr = Vec::with_capacity(m + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for i in 0..a.nrows() {
        let (ac, av) = a.row(i);
        for k in 0..p {
            let (bc, bv) = b.row(k);
            // A's columns ascend and B's columns ascend, so the nested
            // emit order (j outer, l inner) is already sorted.
            for (&j, &aij) in ac.iter().zip(av) {
                for (&l, &bkl) in bc.iter().zip(bv) {
                    col_idx.push(j * q + l);
                    vals.push(mul.apply(aij, bkl));
                }
            }
            row_ptr.push(col_idx.len());
        }
    }
    CsrMatrix::from_parts_unchecked(m, n, row_ptr, col_idx, vals)
}

#[cfg(test)]
mod kron_tests {
    use super::*;
    use gbtl_algebra::Times;
    use gbtl_sparse::CooMatrix;

    fn from_triples(t: &[(usize, usize, i64)], m: usize, n: usize) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(m, n);
        for &(i, j, v) in t {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn kron_2x2_identity_times_matrix() {
        // I2 ⊗ B = blockdiag(B, B)
        let i2 = from_triples(&[(0, 0, 1), (1, 1, 1)], 2, 2);
        let b = from_triples(&[(0, 1, 3), (1, 0, 4)], 2, 2);
        let c = kronecker(&i2, &b, Times::new());
        c.validate().unwrap();
        assert_eq!((c.nrows(), c.ncols(), c.nnz()), (4, 4, 4));
        assert_eq!(c.get(0, 1), Some(3));
        assert_eq!(c.get(1, 0), Some(4));
        assert_eq!(c.get(2, 3), Some(3));
        assert_eq!(c.get(3, 2), Some(4));
        assert_eq!(c.get(0, 3), None);
    }

    #[test]
    fn kron_values_multiply() {
        let a = from_triples(&[(0, 0, 2)], 1, 1);
        let b = from_triples(&[(0, 0, 5), (0, 1, 7)], 1, 2);
        let c = kronecker(&a, &b, Times::new());
        assert_eq!(c.get(0, 0), Some(10));
        assert_eq!(c.get(0, 1), Some(14));
    }

    #[test]
    fn kron_rectangular_shapes() {
        let a = from_triples(&[(0, 1, 1), (1, 0, 1)], 2, 2);
        let b = from_triples(&[(0, 0, 1), (0, 2, 1)], 1, 3);
        let c = kronecker(&a, &b, Times::new());
        c.validate().unwrap();
        assert_eq!((c.nrows(), c.ncols()), (2, 6));
        assert_eq!(c.get(0, 3), Some(1)); // A(0,1) x B(0,0) -> (0*1+0, 1*3+0)
        assert_eq!(c.get(0, 5), Some(1));
        assert_eq!(c.get(1, 0), Some(1));
        assert_eq!(c.get(1, 2), Some(1));
    }
}
