//! Remaining device operations: `apply`, reductions, `transpose`, `build`.
//! Each result is the sequential backend's; the device is charged the
//! Thrust pipeline GBTL-CUDA runs for it.

use gbtl_algebra::{BinaryOp, Monoid, Scalar, UnaryOp};
use gbtl_gpu_sim::{primitives as prim, Gpu};
use gbtl_sparse::{CooMatrix, CsrMatrix, DenseVector, SparseVector};

use crate::util::{charge_compress, charge_expand_row_ids, charge_stream_kernel};

/// `C = f(A)` — one `transform` over the value array; structure copied.
pub fn apply_mat<A, U>(gpu: &Gpu, a: &CsrMatrix<A>, f: U) -> CsrMatrix<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    prim::map::charge_transform::<A, U::Output>(gpu, a.nnz());
    gbtl_backend_seq::apply_mat(a, f)
}

/// `w = f(u)` on a sparse vector.
pub fn apply_vec<A, U>(gpu: &Gpu, u: &SparseVector<A>, f: U) -> SparseVector<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    prim::map::charge_transform::<A, U::Output>(gpu, u.nnz());
    gbtl_backend_seq::apply_vec(u, f)
}

/// `w = f(u)` on a dense vector (absent stays absent): a `transform` over
/// every slot.
pub fn apply_dense_vec<A, U>(gpu: &Gpu, u: &DenseVector<A>, f: U) -> DenseVector<U::Output>
where
    A: Scalar,
    U: UnaryOp<A>,
{
    prim::map::charge_transform::<Option<A>, Option<U::Output>>(gpu, u.len());
    gbtl_backend_seq::apply_dense_vec(u, f)
}

/// Reduce all stored entries of `A`; `None` (and nothing launched) when
/// the matrix stores nothing.
pub fn reduce_mat<T, M>(gpu: &Gpu, a: &CsrMatrix<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    if a.nnz() > 0 {
        prim::reduce::charge_reduce::<T>(gpu, a.nnz());
    }
    gbtl_backend_seq::reduce_mat(a, monoid)
}

/// Row-wise reduction `w_i = ⊕ A(i,:)` — a segmented reduce over the row
/// pointer, then a compaction dropping the empty rows.
pub fn reduce_rows<T, M>(gpu: &Gpu, a: &CsrMatrix<T>, monoid: M) -> SparseVector<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    let w = gbtl_backend_seq::reduce_rows(a, monoid);
    prim::reduce::charge_segmented_reduce::<T>(gpu, a.nrows(), a.nnz());
    prim::compact::charge_compaction::<T>(gpu, a.nrows(), w.nnz());
    w
}

/// Reduce the present entries of a dense vector (one `reduce` over every
/// slot); `None` when none present.
pub fn reduce_vec<T, M>(gpu: &Gpu, u: &DenseVector<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    prim::reduce::charge_reduce::<Option<T>>(gpu, u.len());
    gbtl_backend_seq::reduce_vec(u, monoid)
}

/// Reduce a sparse vector's stored values; `None` (and nothing launched)
/// when empty.
pub fn reduce_sparse_vec<T, M>(gpu: &Gpu, u: &SparseVector<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    if u.nnz() > 0 {
        prim::reduce::charge_reduce::<T>(gpu, u.nnz());
    }
    gbtl_backend_seq::reduce_sparse_vec(u, monoid)
}

/// `C = Aᵀ` the GPU way: re-key every entry column-major and radix sort.
pub fn transpose<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>) -> CsrMatrix<T> {
    charge_transpose(gpu, a);
    a.transpose()
}

/// Charge [`transpose`]'s pipeline: row ids expanded, one column-major key
/// per entry, a radix sort of the `(key, value)` pairs, and compression
/// into the `ncols`-row result.
pub(crate) fn charge_transpose<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>) {
    charge_expand_row_ids(gpu, a.nrows(), a.nnz());
    charge_stream_kernel(gpu, "transpose_keys", a.nnz(), 16, 8);
    prim::sort::charge_radix_sort::<u64, T>(gpu, a.nnz());
    charge_compress(gpu, a.ncols(), a.nnz());
}

/// Build a CSR matrix from COO triples on the device (GrB `build`): key
/// the triples, sort by `(i,j)`, combine duplicates with `dup`, compress.
/// The radix sort is stable, so duplicates fold left to right in input
/// order — the sequential `build`'s contract.
pub fn build_csr<T, D>(gpu: &Gpu, coo: &CooMatrix<T>, dup: D) -> CsrMatrix<T>
where
    T: Scalar,
    D: BinaryOp<T>,
{
    let c = gbtl_backend_seq::build(coo, dup);
    charge_stream_kernel(gpu, "build_keys", coo.nnz(), 16, 8);
    prim::sort::charge_radix_sort::<u64, T>(gpu, coo.nnz());
    prim::reduce::charge_reduce_by_key::<u64, T>(gpu, coo.nnz(), c.nnz());
    charge_compress(gpu, c.nrows(), c.nnz());
    c
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
