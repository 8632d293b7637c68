//! Remaining device operations: `apply`, reductions, `transpose`, `build`.

use gbtl_algebra::{BinaryOp, Monoid, Scalar, UnaryOp};
use gbtl_gpu_sim::{primitives as prim, Gpu};
use gbtl_sparse::{CooMatrix, CsrMatrix, DenseVector, SparseVector};

use crate::util::{assert_key_encodable, compress_sorted_keys, encode_key, entry_keys};

/// `C = f(A)` — one `transform` over the value array; structure copied.
pub fn apply_mat<A, U>(gpu: &Gpu, a: &CsrMatrix<A>, f: U) -> CsrMatrix<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    let vals = prim::transform(gpu, a.vals(), |&v| f.apply(v));
    CsrMatrix::from_parts_unchecked(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        vals,
    )
}

/// `w = f(u)` on a sparse vector.
pub fn apply_vec<A, U>(gpu: &Gpu, u: &SparseVector<A>, f: U) -> SparseVector<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    let vals = prim::transform(gpu, u.values(), |&v| f.apply(v));
    SparseVector::from_sorted(u.len(), u.indices().to_vec(), vals)
        .expect("structure copied from valid vector")
}

/// `w = f(u)` on a dense vector (absent stays absent).
pub fn apply_dense_vec<A, U>(gpu: &Gpu, u: &DenseVector<A>, f: U) -> DenseVector<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    let opts = prim::transform(gpu, u.options(), |o| o.map(|v| f.apply(v)));
    DenseVector::from_options(opts)
}

/// Reduce all stored entries of `A`; `None` when the matrix stores nothing.
pub fn reduce_mat<T, M>(gpu: &Gpu, a: &CsrMatrix<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    if a.nnz() == 0 {
        return None;
    }
    Some(prim::reduce(gpu, a.vals(), monoid.identity(), |x, y| {
        monoid.apply(x, y)
    }))
}

/// Row-wise reduction `w_i = ⊕ A(i,:)` — a segmented reduce over the row
/// pointer; empty rows are absent in the result.
pub fn reduce_rows<T, M>(gpu: &Gpu, a: &CsrMatrix<T>, monoid: M) -> SparseVector<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    let per_row = prim::segmented_reduce(gpu, a.row_ptr(), a.vals(), monoid.identity(), |x, y| {
        monoid.apply(x, y)
    });
    let (idx, vals) = prim::copy_if_indexed(gpu, &per_row, |i, _| a.row_nnz(i) > 0);
    SparseVector::from_sorted(a.nrows(), idx, vals).expect("indices ascend")
}

/// Reduce the present entries of a dense vector; `None` when none present.
pub fn reduce_vec<T, M>(gpu: &Gpu, u: &DenseVector<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    let acc = prim::reduce(
        gpu,
        u.options(),
        None,
        |x: Option<T>, y: Option<T>| match (x, y) {
            (Some(a), Some(b)) => Some(monoid.apply(a, b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        },
    );
    acc
}

/// Reduce a sparse vector's stored values; `None` when empty.
pub fn reduce_sparse_vec<T, M>(gpu: &Gpu, u: &SparseVector<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    if u.nnz() == 0 {
        return None;
    }
    Some(prim::reduce(gpu, u.values(), monoid.identity(), |x, y| {
        monoid.apply(x, y)
    }))
}

/// `C = Aᵀ` the GPU way: re-key every entry column-major and radix sort.
pub fn transpose<T>(gpu: &Gpu, a: &CsrMatrix<T>) -> CsrMatrix<T>
where
    T: Scalar,
{
    assert_key_encodable(a.ncols(), a.nrows());
    let keys = entry_keys(gpu, a, |i, j| encode_key(j, i, a.nrows()));
    super::charge_stream_kernel(gpu, "transpose_keys", a.nnz(), 16, 8);
    let (skeys, svals) = prim::sort_pairs(gpu, &keys, a.vals());
    compress_sorted_keys(gpu, a.ncols(), a.nrows(), &skeys, svals)
}

/// Build a CSR matrix from COO triples on the device (GrB `build`):
/// sort by `(i,j)`, combine duplicates with `dup`, compress. The radix sort
/// is stable, so duplicates fold left to right in input order.
pub fn build_csr<T, D>(gpu: &Gpu, coo: &CooMatrix<T>, dup: D) -> CsrMatrix<T>
where
    T: Scalar,
    D: BinaryOp<T>,
{
    assert_key_encodable(coo.nrows(), coo.ncols());
    let (rows, cols, vals) = coo.triples();
    let keys: Vec<u64> = rows
        .iter()
        .zip(cols)
        .map(|(&i, &j)| encode_key(i, j, coo.ncols()))
        .collect();
    super::charge_stream_kernel(gpu, "build_keys", coo.nnz(), 16, 8);
    let (skeys, svals) = prim::sort_pairs(gpu, &keys, vals);
    let (ukeys, uvals) = prim::reduce_by_key(gpu, &skeys, &svals, |x, y| dup.apply(x, y));
    compress_sorted_keys(gpu, coo.nrows(), coo.ncols(), &ukeys, uvals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{AdditiveInverse, Identity, MaxMonoid, Plus, PlusMonoid};

    fn mat(entries: &[(usize, usize, i64)], m: usize, n: usize) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(m, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn apply_matches_seq() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 0, 2), (1, 1, -4)], 2, 2);
        let expected = gbtl_backend_seq::apply_mat(&a, AdditiveInverse::<i64>::new());
        let got = apply_mat(&gpu, &a, AdditiveInverse::<i64>::new());
        assert_eq!(got, expected);
    }

    #[test]
    fn reduce_mat_matches_seq() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 0, 5), (0, 2, 7), (2, 1, -2)], 3, 3);
        assert_eq!(
            reduce_mat(&gpu, &a, PlusMonoid::<i64>::new()),
            gbtl_backend_seq::reduce_mat(&a, PlusMonoid::<i64>::new())
        );
        assert_eq!(
            reduce_mat(&gpu, &CsrMatrix::<i64>::new(2, 2), PlusMonoid::<i64>::new()),
            None
        );
    }

    #[test]
    fn reduce_rows_matches_seq() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 0, 5), (0, 2, 7), (2, 1, -2)], 3, 3);
        assert_eq!(
            reduce_rows(&gpu, &a, MaxMonoid::<i64>::new()),
            gbtl_backend_seq::reduce_rows(&a, MaxMonoid::<i64>::new())
        );
    }

    #[test]
    fn reduce_vectors() {
        let gpu = Gpu::default();
        let mut d = DenseVector::new(5);
        assert_eq!(reduce_vec(&gpu, &d, PlusMonoid::<i64>::new()), None);
        d.set(1, 3i64);
        d.set(4, 9);
        assert_eq!(reduce_vec(&gpu, &d, PlusMonoid::<i64>::new()), Some(12));
        assert_eq!(
            reduce_sparse_vec(&gpu, &d.to_sparse(), PlusMonoid::<i64>::new()),
            Some(12)
        );
    }

    #[test]
    fn transpose_matches_csr_transpose() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 2, 1), (1, 0, 2), (2, 1, 3), (2, 2, 4)], 3, 3);
        assert_eq!(transpose(&gpu, &a), a.transpose());
    }

    #[test]
    fn build_merges_duplicates() {
        let gpu = Gpu::default();
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 1, 5i64);
        coo.push(0, 0, 1);
        coo.push(1, 1, 7);
        let m = build_csr(&gpu, &coo, Plus::<i64>::new());
        assert_eq!(m.get(1, 1), Some(12));
        assert_eq!(m.get(0, 0), Some(1));
        assert_eq!(m.nnz(), 2);
        m.validate().unwrap();
    }

    #[test]
    fn apply_dense_vec_preserves_structure() {
        let gpu = Gpu::default();
        let mut u = DenseVector::new(3);
        u.set(2, 9i64);
        let w = apply_dense_vec(&gpu, &u, Identity::<i64>::new());
        assert_eq!(w.get(0), None);
        assert_eq!(w.get(2), Some(9));
    }
}
