//! Parallel elementwise union (`eWiseAdd`) and intersection (`eWiseMult`).
//!
//! Matrix variants cut rows balanced on the *combined* nnz of both
//! operands and run the sequential row-range merge on each cut. Vector
//! variants split the index domain into even contiguous ranges —
//! `partition_point` locates each operand's sub-slice, so tasks never
//! overlap and concatenation preserves order. The merges themselves are
//! `gbtl-backend-seq`'s, hence bit-identical output.

use crate::pool::ThreadPool;
use crate::schedule::{join_dense, join_entries, over_range, over_rows};
use gbtl_algebra::{BinaryOp, Scalar};
use gbtl_backend_seq::{
    ewise_add_mat_rows, ewise_mult_mat_rows, ewise_mult_vec_rows, merge_union, stitch_rows,
};
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector};

/// Cumulative combined nnz of both operands, for balance-aware chunking.
fn combined_ptr<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Vec<usize> {
    a.row_ptr()
        .iter()
        .zip(b.row_ptr())
        .map(|(&x, &y)| x + y)
        .collect()
}

/// `C = A ⊕ B` — union merge per row, rows in parallel.
pub fn ewise_add_mat<T, Op>(
    pool: &ThreadPool,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    op: Op,
) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    let parts = over_rows(pool, &combined_ptr(a, b), |rows| {
        ewise_add_mat_rows(a, b, op, rows)
    });
    stitch_rows(a.nrows(), a.ncols(), parts)
}

/// `C = A ⊗ B` — intersection merge per row, rows in parallel.
pub fn ewise_mult_mat<T, Op>(
    pool: &ThreadPool,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    op: Op,
) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    let parts = over_rows(pool, &combined_ptr(a, b), |rows| {
        ewise_mult_mat_rows(a, b, op, rows)
    });
    stitch_rows(a.nrows(), a.ncols(), parts)
}

/// `w = u ⊕ v` on sparse vectors — union merge over an index-domain split.
pub fn ewise_add_vec<T, Op>(
    pool: &ThreadPool,
    u: &SparseVector<T>,
    v: &SparseVector<T>,
    op: Op,
) -> SparseVector<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    assert_eq!(u.len(), v.len(), "eWiseAdd vector length mismatch");
    let n = u.len();
    let parts = over_range(pool, n, |r| {
        // each operand's entries with an index in `r`
        let within = |idx: &[usize]| {
            idx.partition_point(|&i| i < r.start)..idx.partition_point(|&i| i < r.end)
        };
        let (ur, vr) = (within(u.indices()), within(v.indices()));
        let mut idx = Vec::with_capacity(ur.len() + vr.len());
        let mut vals = Vec::with_capacity(idx.capacity());
        let (ui, uv) = (&u.indices()[ur.clone()], &u.values()[ur]);
        let (vi, vv) = (&v.indices()[vr.clone()], &v.values()[vr]);
        merge_union(ui, uv, vi, vv, op, &mut idx, &mut vals);
        (idx, vals)
    });
    let (idx, vals) = join_entries(parts);
    SparseVector::from_sorted(n, idx, vals).expect("disjoint ascending ranges merge sorted")
}

/// `w = u ⊗ v` on dense vectors — even index chunks in parallel.
pub fn ewise_mult_vec<T, Op>(
    pool: &ThreadPool,
    u: &DenseVector<T>,
    v: &DenseVector<T>,
    op: Op,
) -> DenseVector<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    let segments = over_range(pool, u.len(), |r| ewise_mult_vec_rows(u, v, op, r));
    join_dense(u.len(), segments)
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
    fn mat_ops_match_seq() {
        let a = mat(&[(0, 0, 1), (0, 2, 2), (2, 1, 7), (3, 3, 9)], 4, 4);
        let b = mat(&[(0, 2, 10), (1, 1, 5), (2, 1, -7), (3, 0, 1)], 4, 4);
        let want_add = gbtl_backend_seq::ewise_add_mat(&a, &b, Plus::<i64>::new());
        let want_mult = gbtl_backend_seq::ewise_mult_mat(&a, &b, Times::<i64>::new());
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            assert_eq!(ewise_add_mat(&pool, &a, &b, Plus::<i64>::new()), want_add);
            assert_eq!(
                ewise_mult_mat(&pool, &a, &b, Times::<i64>::new()),
                want_mult
            );
        }
    }

    #[test]
    fn vec_ops_match_seq() {
        let mut u = SparseVector::new(9);
        u.set(1, 10i64);
        u.set(3, 30);
        u.set(8, 80);
        let mut v = SparseVector::new(9);
        v.set(0, 1i64);
        v.set(3, 3);
        v.set(7, 7);
        let want = gbtl_backend_seq::ewise_add_vec(&u, &v, Min::<i64>::new());
        let mut du = DenseVector::new(9);
        du.set(0, 2i64);
        du.set(5, 3);
        let mut dv = DenseVector::new(9);
        dv.set(5, 10i64);
        dv.set(6, 10);
        let want_mult = gbtl_backend_seq::ewise_mult_vec(&du, &dv, Times::<i64>::new());
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            assert_eq!(ewise_add_vec(&pool, &u, &v, Min::<i64>::new()), want);
            assert_eq!(
                ewise_mult_vec(&pool, &du, &dv, Times::<i64>::new()),
                want_mult
            );
        }
    }
}
