//! Sparse matrix–matrix multiply: Gustavson's row-wise algorithm.

use crate::rows::RowChunk;
use gbtl_algebra::{BinaryOp, Scalar, Semiring};
use gbtl_sparse::CsrMatrix;
use gbtl_util::workspace;
use std::ops::Range;

/// `C = A ⊕.⊗ B` over the semiring — Gustavson's algorithm with a dense
/// per-row accumulator (`O(flops + nrows·reset)` time, `O(ncols)` workspace).
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
    let (add, mul) = (sr.add(), sr.mul());

    // The accumulator and touched list come from the thread-local
    // workspace pool: per-row `take()` drains leave the accumulator
    // all-None, which is the pool's return invariant.
    workspace::with_accumulator(b.ncols(), |acc: &mut Vec<Option<T>>| {
        workspace::with_index_buffer(|touched| {
            let mut row_ptr = Vec::with_capacity(rows.len() + 1);
            row_ptr.push(0usize);
            let mut col_idx = Vec::new();
            let mut vals = Vec::new();
            for i in rows {
                touched.clear();
                let (a_cols, a_vals) = a.row(i);
                for (&k, &aik) in a_cols.iter().zip(a_vals) {
                    let (b_cols, b_vals) = b.row(k);
                    for (&j, &bkj) in b_cols.iter().zip(b_vals) {
                        let term = mul.apply(aik, bkj);
                        match &mut acc[j] {
                            Some(v) => *v = add.apply(*v, term),
                            slot @ None => {
                                *slot = Some(term);
                                touched.push(j);
                            }
                        }
                    }
                }
                touched.sort_unstable();
                for &j in touched.iter() {
                    col_idx.push(j);
                    vals.push(acc[j].take().expect("touched implies present"));
                }
                row_ptr.push(col_idx.len());
            }
            RowChunk::from_parts(row_ptr, col_idx, vals)
        })
    })
}

/// Masked multiply: `C<M> = A ⊕.⊗ B`, computing **only** the entries present
/// in the structural mask `M` (the triangle-counting kernel shape).
///
/// Same Gustavson traversal, but terms accumulate only into positions the
/// mask row marks, so the output (and workspace writes) never exceed
/// `nnz(M)`.
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
    let (add, mul) = (sr.add(), sr.mul());
    let n = b.ncols();

    // allowed[j] marks mask presence for the current row; both scratch
    // buffers come from the workspace pool (the per-mask-row drain
    // restores their all-false / all-None return invariants).
    workspace::with_flags(n, |allowed| {
        workspace::with_accumulator(n, |acc: &mut Vec<Option<T>>| {
            let mut row_ptr = Vec::with_capacity(rows.len() + 1);
            row_ptr.push(0usize);
            let mut col_idx = Vec::new();
            let mut vals = Vec::new();
            for i in rows {
                let (m_cols, _) = mask.row(i);
                if !m_cols.is_empty() {
                    for &j in m_cols {
                        allowed[j] = true;
                    }
                    let (a_cols, a_vals) = a.row(i);
                    for (&k, &aik) in a_cols.iter().zip(a_vals) {
                        let (b_cols, b_vals) = b.row(k);
                        for (&j, &bkj) in b_cols.iter().zip(b_vals) {
                            if allowed[j] {
                                let term = mul.apply(aik, bkj);
                                match &mut acc[j] {
                                    Some(v) => *v = add.apply(*v, term),
                                    slot @ None => *slot = Some(term),
                                }
                            }
                        }
                    }
                    // mask rows are sorted, so output stays sorted
                    for &j in m_cols {
                        if let Some(v) = acc[j].take() {
                            col_idx.push(j);
                            vals.push(v);
                        }
                        allowed[j] = false;
                    }
                }
                row_ptr.push(col_idx.len());
            }
            RowChunk::from_parts(row_ptr, col_idx, vals)
        })
    })
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
