//! `apply` (unary transform of stored values) and `select` (structural
//! filtering).

use crate::rows::RowChunk;
use gbtl_algebra::{Scalar, UnaryOp};
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector};
use std::ops::Range;

/// `C = f(A)` applied to stored values only, over `A`'s structure, shared.
/// The unary op may change the scalar domain.
pub fn apply_mat<A, U>(a: &CsrMatrix<A>, f: U) -> CsrMatrix<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    let vals = a.vals().iter().map(|&v| f.apply(v)).collect();
    a.with_same_structure(vals)
        .expect("one value per stored entry")
}

/// `w = f(u)` on a sparse vector.
pub fn apply_vec<A, U>(u: &SparseVector<A>, f: U) -> SparseVector<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    let vals: Vec<U::Output> = u.values().iter().map(|&v| f.apply(v)).collect();
    SparseVector::from_sorted(u.len(), u.indices().to_vec(), vals)
        .expect("structure copied from valid vector")
}

/// `w = f(u)` on a dense vector (absent entries stay absent).
pub fn apply_dense_vec<A, U>(u: &DenseVector<A>, f: U) -> DenseVector<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    DenseVector::from_fn(u.len(), |i| u.get(i).map(|v| f.apply(v)))
}

/// Keep only the entries where `pred(i, j, v)` holds — GraphBLAS `select`
/// with an arbitrary predicate (used for tril/triu extraction).
pub fn select_mat<T, P>(a: &CsrMatrix<T>, pred: P) -> CsrMatrix<T>
where
    T: Scalar,
    P: Fn(usize, usize, T) -> bool,
{
    select_mat_rows(a, pred, 0..a.nrows()).into_matrix(a.ncols())
}

/// Rows `rows` of [`select_mat`]'s result.
pub fn select_mat_rows<T, P>(a: &CsrMatrix<T>, pred: P, rows: Range<usize>) -> RowChunk<T>
where
    T: Scalar,
    P: Fn(usize, usize, T) -> bool,
{
    let mut row_ptr = Vec::with_capacity(rows.len() + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    for i in rows {
        let (cols, vs) = a.row(i);
        for (&j, &v) in cols.iter().zip(vs) {
            if pred(i, j, v) {
                col_idx.push(j);
                vals.push(v);
            }
        }
        row_ptr.push(col_idx.len());
    }
    RowChunk::from_parts(row_ptr, col_idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{AdditiveInverse, Identity, MultiplicativeInverse};
    use gbtl_sparse::CooMatrix;

    fn mat() -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 4.0);
        coo.push(1, 0, -1.0);
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn apply_transforms_values_only() {
        let a = mat();
        let c = apply_mat(&a, MultiplicativeInverse::<f64>::new());
        assert_eq!(c.get(0, 0), Some(0.5));
        assert_eq!(c.get(1, 1), Some(0.25));
        assert_eq!(c.nnz(), a.nnz());
        assert_eq!(c.row_ptr(), a.row_ptr());
    }

    #[test]
    fn apply_vec_keeps_structure() {
        let mut u = SparseVector::new(4);
        u.set(1, 3i64);
        u.set(3, -4);
        let w = apply_vec(&u, AdditiveInverse::<i64>::new());
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(1, -3), (3, 4)]);
    }

    #[test]
    fn apply_dense_vec_preserves_absence() {
        let mut u = DenseVector::new(3);
        u.set(1, 7i64);
        let w = apply_dense_vec(&u, Identity::<i64>::new());
        assert_eq!(w.get(0), None);
        assert_eq!(w.get(1), Some(7));
    }

    #[test]
    fn select_lower_triangle() {
        let a = mat();
        let l = select_mat(&a, |i, j, _| j < i);
        assert_eq!(l.nnz(), 1);
        assert_eq!(l.get(1, 0), Some(-1.0));
        l.validate().unwrap();
    }

    #[test]
    fn select_by_value() {
        let a = mat();
        let pos = select_mat(&a, |_, _, v| v > 0.0);
        assert_eq!(pos.nnz(), 2);
        assert_eq!(pos.get(1, 0), None);
    }
}

/// Keep entries passing a [`SelectOp`](gbtl_algebra::SelectOp) — the operator-typed form of
/// [`select_mat`].
pub fn select_mat_op<T, P>(a: &CsrMatrix<T>, op: P) -> CsrMatrix<T>
where
    T: Scalar,
    P: gbtl_algebra::SelectOp<T>,
{
    select_mat(a, |i, j, v| op.keep(i, j, v))
}

/// Keep vector entries passing a [`SelectOp`](gbtl_algebra::SelectOp) (column fixed at 0).
pub fn select_vec_op<T, P>(u: &SparseVector<T>, op: P) -> SparseVector<T>
where
    T: Scalar,
    P: gbtl_algebra::SelectOp<T>,
{
    let mut idx = Vec::new();
    let mut vals = Vec::new();
    for (i, v) in u.iter() {
        if op.keep(i, 0, v) {
            idx.push(i);
            vals.push(v);
        }
    }
    SparseVector::from_sorted(u.len(), idx, vals).expect("filter preserves order")
}

#[cfg(test)]
mod select_op_tests {
    use super::*;
    use gbtl_algebra::{TriU, ValueGt};
    use gbtl_sparse::CooMatrix;

    #[test]
    fn select_mat_op_matches_closure() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 5i64);
        coo.push(1, 0, -2);
        coo.push(2, 2, 7);
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        assert_eq!(select_mat_op(&a, TriU), select_mat(&a, |i, j, _| j > i));
        let pos = select_mat_op(&a, ValueGt(0i64));
        assert_eq!(pos.nnz(), 2);
    }

    #[test]
    fn select_vec_op_filters() {
        let mut u = SparseVector::new(5);
        u.set(0, 10i64);
        u.set(3, -4);
        let kept = select_vec_op(&u, ValueGt(0i64));
        assert_eq!(kept.iter().collect::<Vec<_>>(), vec![(0, 10)]);
    }
}
