//! Elementwise union (`eWiseAdd`) and intersection (`eWiseMult`) merges.
//!
//! GraphBLAS semantics: `eWiseAdd` keeps the union of structures, applying
//! the op only where *both* operands hold a value; `eWiseMult` keeps the
//! intersection.

use crate::rows::RowChunk;
use gbtl_algebra::{BinaryOp, Scalar};
use gbtl_sparse::{CsrMatrix, DenseVector, Index, SparseVector};
use std::ops::Range;

/// Both operands' entry count over rows `rows` — the most a merge of those
/// rows can emit.
fn nnz_in<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>, rows: &Range<usize>) -> usize {
    let span = |p: &[usize]| p[rows.end] - p[rows.start];
    span(a.row_ptr()) + span(b.row_ptr())
}

/// `C = A ⊕ B` — union merge per row (two-pointer walk of sorted rows).
pub fn ewise_add_mat<T, Op>(a: &CsrMatrix<T>, b: &CsrMatrix<T>, op: Op) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    ewise_add_mat_rows(a, b, op, 0..a.nrows()).into_matrix(a.ncols())
}

/// Rows `rows` of [`ewise_add_mat`]'s result.
pub fn ewise_add_mat_rows<T, Op>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    op: Op,
    rows: Range<usize>,
) -> RowChunk<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "eWiseAdd shape mismatch"
    );
    let mut row_ptr = Vec::with_capacity(rows.len() + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(nnz_in(a, b, &rows));
    let mut vals = Vec::with_capacity(col_idx.capacity());
    for i in rows {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        merge_union(ac, av, bc, bv, op, &mut col_idx, &mut vals);
        row_ptr.push(col_idx.len());
    }
    RowChunk::from_parts(row_ptr, col_idx, vals)
}

/// `C = A ⊗ B` — intersection merge per row.
pub fn ewise_mult_mat<T, Op>(a: &CsrMatrix<T>, b: &CsrMatrix<T>, op: Op) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    ewise_mult_mat_rows(a, b, op, 0..a.nrows()).into_matrix(a.ncols())
}

/// Rows `rows` of [`ewise_mult_mat`]'s result.
pub fn ewise_mult_mat_rows<T, Op>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    op: Op,
    rows: Range<usize>,
) -> RowChunk<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "eWiseMult shape mismatch"
    );
    let mut row_ptr = Vec::with_capacity(rows.len() + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    for i in rows {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        let (mut p, mut q) = (0usize, 0usize);
        while p < ac.len() && q < bc.len() {
            match ac[p].cmp(&bc[q]) {
                std::cmp::Ordering::Equal => {
                    col_idx.push(ac[p]);
                    vals.push(op.apply(av[p], bv[q]));
                    p += 1;
                    q += 1;
                }
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
            }
        }
        row_ptr.push(col_idx.len());
    }
    RowChunk::from_parts(row_ptr, col_idx, vals)
}

/// Union merge of two ascending `(index, value)` runs, appended to
/// `idx`/`vals`: `op` where both hold an index, the lone value elsewhere.
/// One matrix row pair, or (a range of) two sparse vectors.
#[inline]
pub fn merge_union<T: Scalar, Op: BinaryOp<T>>(
    ai: &[Index],
    av: &[T],
    bi: &[Index],
    bv: &[T],
    op: Op,
    idx: &mut Vec<Index>,
    vals: &mut Vec<T>,
) {
    let (mut p, mut q) = (0usize, 0usize);
    while p < ai.len() || q < bi.len() {
        match (ai.get(p), bi.get(q)) {
            (Some(&ja), Some(&jb)) if ja == jb => {
                idx.push(ja);
                vals.push(op.apply(av[p], bv[q]));
                p += 1;
                q += 1;
            }
            (Some(&ja), Some(&jb)) if ja < jb => {
                idx.push(ja);
                vals.push(av[p]);
                p += 1;
            }
            (Some(_), Some(&jb)) => {
                idx.push(jb);
                vals.push(bv[q]);
                q += 1;
            }
            (Some(&ja), None) => {
                idx.push(ja);
                vals.push(av[p]);
                p += 1;
            }
            (None, Some(&jb)) => {
                idx.push(jb);
                vals.push(bv[q]);
                q += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
}

/// `w = u ⊕ v` on sparse vectors — union merge.
pub fn ewise_add_vec<T, Op>(u: &SparseVector<T>, v: &SparseVector<T>, op: Op) -> SparseVector<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    assert_eq!(u.len(), v.len(), "eWiseAdd vector length mismatch");
    let (ui, vi) = (u.indices(), v.indices());
    let mut idx: Vec<Index> = Vec::with_capacity(ui.len() + vi.len());
    let mut vals: Vec<T> = Vec::with_capacity(ui.len() + vi.len());
    merge_union(ui, u.values(), vi, v.values(), op, &mut idx, &mut vals);
    SparseVector::from_sorted(u.len(), idx, vals).expect("merge preserves sortedness")
}

/// `w = u ⊗ v` on dense vectors — intersection of presence.
pub fn ewise_mult_vec<T, Op>(u: &DenseVector<T>, v: &DenseVector<T>, op: Op) -> DenseVector<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    ewise_mult_vec_rows(u, v, op, 0..u.len())
}

/// Positions `rows` of [`ewise_mult_vec`]'s result, as a vector of
/// `rows.len()` entries.
pub fn ewise_mult_vec_rows<T, Op>(
    u: &DenseVector<T>,
    v: &DenseVector<T>,
    op: Op,
    rows: Range<usize>,
) -> DenseVector<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    assert_eq!(u.len(), v.len(), "eWiseMult vector length mismatch");
    DenseVector::from_fn(rows.len(), |k| {
        let i = rows.start + k;
        Some(op.apply(u.get(i)?, v.get(i)?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{Min, Plus, Times};
    use gbtl_sparse::CooMatrix;

    fn mat(entries: &[(usize, usize, i64)], m: usize, n: usize) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(m, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn add_mat_is_union() {
        let a = mat(&[(0, 0, 1), (0, 2, 2)], 2, 3);
        let b = mat(&[(0, 2, 10), (1, 1, 5)], 2, 3);
        let c = ewise_add_mat(&a, &b, Plus::<i64>::new());
        c.validate().unwrap();
        assert_eq!(c.get(0, 0), Some(1));
        assert_eq!(c.get(0, 2), Some(12));
        assert_eq!(c.get(1, 1), Some(5));
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn mult_mat_is_intersection() {
        let a = mat(&[(0, 0, 3), (0, 2, 2), (1, 1, 4)], 2, 3);
        let b = mat(&[(0, 0, 5), (1, 0, 7)], 2, 3);
        let c = ewise_mult_mat(&a, &b, Times::<i64>::new());
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(15));
    }

    #[test]
    fn add_with_min_op() {
        let a = mat(&[(0, 0, 9)], 1, 2);
        let b = mat(&[(0, 0, 4), (0, 1, 1)], 1, 2);
        let c = ewise_add_mat(&a, &b, Min::<i64>::new());
        assert_eq!(c.get(0, 0), Some(4));
        assert_eq!(c.get(0, 1), Some(1));
    }

    #[test]
    fn add_vec_union() {
        let mut u = SparseVector::new(5);
        u.set(1, 10i64);
        u.set(3, 30);
        let mut v = SparseVector::new(5);
        v.set(0, 1i64);
        v.set(3, 3);
        let w = ewise_add_vec(&u, &v, Plus::<i64>::new());
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(0, 1), (1, 10), (3, 33)]);
    }

    #[test]
    fn mult_vec_intersection() {
        let mut u = DenseVector::new(4);
        u.set(0, 2i64);
        u.set(2, 3);
        let mut v = DenseVector::new(4);
        v.set(2, 10i64);
        v.set(3, 10);
        let w = ewise_mult_vec(&u, &v, Times::<i64>::new());
        assert_eq!(w.nnz(), 1);
        assert_eq!(w.get(2), Some(30));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = mat(&[], 2, 3);
        let b = mat(&[], 3, 2);
        let _ = ewise_add_mat(&a, &b, Plus::<i64>::new());
    }
}
