//! Reductions: matrix→scalar, matrix→vector (row reduce), vector→scalar.

use gbtl_algebra::{Monoid, Scalar};
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector};
use std::ops::Range;

/// Reduce all stored entries of `A` with the monoid. Returns `None` for a
/// matrix with no stored entries (GraphBLAS: absence, not identity).
pub fn reduce_mat<T, M>(a: &CsrMatrix<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    let mut it = a.vals().iter().copied();
    let first = it.next()?;
    Some(it.fold(first, |acc, v| monoid.apply(acc, v)))
}

/// Row-wise reduction `w_i = ⊕ A(i, :)`; rows with no entries are absent in
/// the result.
pub fn reduce_rows<T, M>(a: &CsrMatrix<T>, monoid: M) -> SparseVector<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    let (idx, vals) = reduce_rows_range(a, monoid, 0..a.nrows());
    SparseVector::from_sorted(a.nrows(), idx, vals).expect("rows visited in order")
}

/// The entries of [`reduce_rows`]'s result at positions `rows`, as
/// ascending indices and their values.
pub fn reduce_rows_range<T, M>(
    a: &CsrMatrix<T>,
    monoid: M,
    rows: Range<usize>,
) -> (Vec<usize>, Vec<T>)
where
    T: Scalar,
    M: Monoid<T>,
{
    let mut idx = Vec::new();
    let mut vals = Vec::new();
    for i in rows {
        let (_, vs) = a.row(i);
        if let Some((&first, rest)) = vs.split_first() {
            idx.push(i);
            vals.push(rest.iter().fold(first, |acc, &v| monoid.apply(acc, v)));
        }
    }
    (idx, vals)
}

/// Reduce all present entries of a dense vector; `None` when none present.
pub fn reduce_vec<T, M>(u: &DenseVector<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    let mut acc: Option<T> = None;
    for (_, v) in u.iter() {
        acc = Some(match acc {
            Some(a) => monoid.apply(a, v),
            None => v,
        });
    }
    acc
}

/// Reduce a sparse vector's stored values; `None` when empty.
pub fn reduce_sparse_vec<T, M>(u: &SparseVector<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    let mut it = u.values().iter().copied();
    let first = it.next()?;
    Some(it.fold(first, |acc, v| monoid.apply(acc, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{MaxMonoid, MinMonoid, PlusMonoid};
    use gbtl_sparse::CooMatrix;

    fn mat() -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 5);
        coo.push(0, 2, 7);
        coo.push(2, 1, -2);
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn reduce_mat_sums_all() {
        assert_eq!(reduce_mat(&mat(), PlusMonoid::<i64>::new()), Some(10));
        assert_eq!(reduce_mat(&mat(), MaxMonoid::<i64>::new()), Some(7));
    }

    #[test]
    fn reduce_empty_matrix_is_none() {
        let empty = CsrMatrix::<i64>::new(4, 4);
        assert_eq!(reduce_mat(&empty, PlusMonoid::<i64>::new()), None);
    }

    #[test]
    fn reduce_rows_skips_empty_rows() {
        let w = reduce_rows(&mat(), PlusMonoid::<i64>::new());
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(0, 12), (2, -2)]);
    }

    #[test]
    fn reduce_rows_with_min() {
        let w = reduce_rows(&mat(), MinMonoid::<i64>::new());
        assert_eq!(w.get(0), Some(5));
        assert_eq!(w.get(1), None);
    }

    #[test]
    fn reduce_vectors() {
        let mut d = DenseVector::new(4);
        assert_eq!(reduce_vec(&d, PlusMonoid::<i64>::new()), None);
        d.set(1, 3);
        d.set(2, 4);
        assert_eq!(reduce_vec(&d, PlusMonoid::<i64>::new()), Some(7));

        let s = d.to_sparse();
        assert_eq!(reduce_sparse_vec(&s, PlusMonoid::<i64>::new()), Some(7));
        assert_eq!(
            reduce_sparse_vec(&SparseVector::<i64>::new(3), PlusMonoid::<i64>::new()),
            None
        );
    }
}
