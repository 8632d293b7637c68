//! Parallel `apply` (value transforms) and `select` (structural filters).
//!
//! `apply` is embarrassingly parallel over the value array — structure is
//! copied untouched, value chunks map independently and concatenate in
//! order. `select` runs the sequential row-range filter on nnz-balanced row
//! chunks and stitches, like the eWise merges.

use crate::pool::ThreadPool;
use crate::schedule::{over_range, over_rows};
use gbtl_algebra::{Scalar, SelectOp, UnaryOp};
use gbtl_backend_seq::{select_mat_rows, stitch_rows};
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector};

/// Map `f` across a value slice in even parallel chunks, preserving order.
fn map_vals<A, B, F>(pool: &ThreadPool, vals: &[A], f: F) -> Vec<B>
where
    A: Sync,
    B: Send,
    F: Fn(&A) -> B + Sync,
{
    let segments = over_range(pool, vals.len(), |r| {
        vals[r].iter().map(&f).collect::<Vec<B>>()
    });
    let mut out = Vec::with_capacity(vals.len());
    for seg in segments {
        out.extend(seg);
    }
    out
}

/// `C = f(A)` on stored values; structure unchanged.
pub fn apply_mat<A, U>(pool: &ThreadPool, a: &CsrMatrix<A>, f: U) -> CsrMatrix<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    CsrMatrix::from_parts_unchecked(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        map_vals(pool, a.vals(), |&v| f.apply(v)),
    )
}

/// `w = f(u)` on a sparse vector.
pub fn apply_vec<A, U>(pool: &ThreadPool, u: &SparseVector<A>, f: U) -> SparseVector<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    let vals = map_vals(pool, u.values(), |&v| f.apply(v));
    SparseVector::from_sorted(u.len(), u.indices().to_vec(), vals)
        .expect("structure copied from valid vector")
}

/// `w = f(u)` on a dense vector (absence preserved).
pub fn apply_dense_vec<A, U>(pool: &ThreadPool, u: &DenseVector<A>, f: U) -> DenseVector<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    DenseVector::from_options(map_vals(pool, u.options(), |o| o.map(|v| f.apply(v))))
}

/// Keep entries where `pred(i, j, v)` holds; rows filter in parallel.
pub fn select_mat<T, P>(pool: &ThreadPool, a: &CsrMatrix<T>, pred: P) -> CsrMatrix<T>
where
    T: Scalar,
    P: Fn(usize, usize, T) -> bool + Sync,
{
    let parts = over_rows(pool, a.row_ptr(), |rows| select_mat_rows(a, &pred, rows));
    stitch_rows(a.nrows(), a.ncols(), parts)
}

/// Operator-typed form of [`select_mat`].
pub fn select_mat_op<T, P>(pool: &ThreadPool, a: &CsrMatrix<T>, op: P) -> CsrMatrix<T>
where
    T: Scalar,
    P: SelectOp<T>,
{
    select_mat(pool, a, move |i, j, v| op.keep(i, j, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{AdditiveInverse, TriL};
    use gbtl_sparse::CooMatrix;

    #[test]
    fn apply_and_select_match_seq() {
        let mut coo = CooMatrix::new(4, 4);
        for (i, j, v) in [(0, 1, 5i64), (1, 0, -2), (2, 2, 7), (3, 1, 4), (3, 3, -9)] {
            coo.push(i, j, v);
        }
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let want_apply = gbtl_backend_seq::apply_mat(&a, AdditiveInverse::<i64>::new());
        let want_select = gbtl_backend_seq::select_mat_op(&a, TriL);
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            assert_eq!(
                apply_mat(&pool, &a, AdditiveInverse::<i64>::new()),
                want_apply
            );
            assert_eq!(select_mat_op(&pool, &a, TriL), want_select);
        }
    }

    #[test]
    fn apply_vectors_match_seq() {
        let mut u = SparseVector::new(6);
        u.set(1, 3i64);
        u.set(4, -4);
        let mut d = DenseVector::new(6);
        d.set(0, 9i64);
        d.set(5, -1);
        let pool = ThreadPool::with_threads(4);
        assert_eq!(
            apply_vec(&pool, &u, AdditiveInverse::<i64>::new()),
            gbtl_backend_seq::apply_vec(&u, AdditiveInverse::<i64>::new())
        );
        assert_eq!(
            apply_dense_vec(&pool, &d, AdditiveInverse::<i64>::new()),
            gbtl_backend_seq::apply_dense_vec(&d, AdditiveInverse::<i64>::new())
        );
    }
}
