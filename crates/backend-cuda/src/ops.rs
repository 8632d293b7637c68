//! The charges of `apply`, the reductions, `transpose` and `build`: the
//! Thrust pipeline GBTL-CUDA runs for each.

use gbtl_algebra::Scalar;
use gbtl_gpu_sim::{primitives as prim, Gpu};
use gbtl_sparse::{CooMatrix, CsrMatrix, DenseVector, SparseVector};

use crate::util::{charge_compress, charge_expand_row_ids, charge_stream_kernel};

/// `C = f(A)`: one `transform` over the value array; structure copied.
pub fn apply_mat<A: Scalar, B: Scalar>(gpu: &Gpu, a: &CsrMatrix<A>, _c: &CsrMatrix<B>) {
    prim::map::charge_transform::<A, B>(gpu, a.nnz());
}

/// `w = f(u)` on a sparse vector's stored values.
pub fn apply_sparse_vec<A: Scalar, B: Scalar>(
    gpu: &Gpu,
    u: &SparseVector<A>,
    _w: &SparseVector<B>,
) {
    prim::map::charge_transform::<A, B>(gpu, u.nnz());
}

/// `w = f(u)` on a dense vector (absent stays absent): a `transform` over
/// every slot.
pub fn apply_dense_vec<A: Scalar, B: Scalar>(gpu: &Gpu, u: &DenseVector<A>, _w: &DenseVector<B>) {
    prim::map::charge_transform::<Option<A>, Option<B>>(gpu, u.len());
}

/// Reduce all stored entries of `A`; nothing is launched when it stores
/// nothing.
pub fn reduce_mat<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>) {
    if a.nnz() > 0 {
        prim::reduce::charge_reduce::<T>(gpu, a.nnz());
    }
}

/// Row-wise reduction into `w`: a segmented reduce over the row pointer,
/// then a compaction dropping the empty rows.
pub fn reduce_rows<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>, w: &SparseVector<T>) {
    prim::reduce::charge_segmented_reduce::<T>(gpu, a.nrows(), a.nnz());
    prim::compact::charge_compaction::<T>(gpu, a.nrows(), w.nnz());
}

/// Reduce the present entries of a dense vector: one `reduce` over every
/// slot.
pub fn reduce_dense_vec<T: Scalar>(gpu: &Gpu, u: &DenseVector<T>) {
    prim::reduce::charge_reduce::<Option<T>>(gpu, u.len());
}

/// Reduce a sparse vector's stored values; nothing is launched when empty.
pub fn reduce_sparse_vec<T: Scalar>(gpu: &Gpu, u: &SparseVector<T>) {
    if u.nnz() > 0 {
        prim::reduce::charge_reduce::<T>(gpu, u.nnz());
    }
}

/// `C = Aᵀ` the GPU way: row ids expanded, one column-major key per entry,
/// a radix sort of the `(key, value)` pairs, and compression into the
/// `ncols`-row result.
pub fn transpose<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>) {
    charge_expand_row_ids(gpu, a.nrows(), a.nnz());
    charge_stream_kernel(gpu, "transpose_keys", a.nnz(), 16, 8);
    prim::sort::charge_radix_sort::<u64, T>(gpu, a.nnz());
    charge_compress(gpu, a.ncols(), a.nnz());
}

/// GrB `build` of `c` from COO triples: key the triples, sort by `(i,j)`,
/// combine duplicates, compress. The radix sort is stable, so duplicates
/// fold left to right in input order — the sequential `build`'s contract.
pub fn build<T: Scalar>(gpu: &Gpu, coo: &CooMatrix<T>, c: &CsrMatrix<T>) {
    charge_stream_kernel(gpu, "build_keys", coo.nnz(), 16, 8);
    prim::sort::charge_radix_sort::<u64, T>(gpu, coo.nnz());
    prim::reduce::charge_reduce_by_key::<u64, T>(gpu, coo.nnz(), c.nnz());
    charge_compress(gpu, c.nrows(), c.nnz());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reducing_nothing_launches_nothing() {
        let gpu = Gpu::default();
        reduce_mat(&gpu, &CsrMatrix::<i64>::new(2, 2));
        reduce_sparse_vec(&gpu, &SparseVector::<i64>::new(5));
        assert_eq!(gpu.stats().kernels_launched, 0);
        reduce_dense_vec(&gpu, &DenseVector::<i64>::new(5));
        assert_eq!(gpu.stats().kernels_launched, 1);
    }

    #[test]
    fn transpose_sorts_every_entry() {
        let gpu = Gpu::with_trace(Default::default());
        let mut coo = CooMatrix::new(3, 3);
        for (i, j) in [(0, 2), (1, 0), (2, 1)] {
            coo.push(i, j, 1i64);
        }
        transpose(&gpu, &CsrMatrix::from_coo(coo, |a, _| a));
        let names: Vec<_> = gpu.stats().kernel_log.iter().map(|k| k.name).collect();
        assert_eq!(&names[..2], ["expand_row_ids", "transpose_keys"]);
        assert!(names.contains(&"radix_sort_pass") && names.contains(&"histogram"));
    }
}
