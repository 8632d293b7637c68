//! The charges of the elementwise merges: the tagged concat–sort–reduce
//! pipeline.
//!
//! A GPU has no cheap per-row two-pointer merge, so (following CUSP) both
//! `eWiseAdd` and `eWiseMult` concatenate the operands' triples, sort them
//! by a *tagged* key — `(i,j)` in the high bits, the operand tag in the low
//! bit — and combine runs. The tag keeps equal coordinates in operand order,
//! so a non-commutative op (`Minus`, `Div`, `First`) sees `A`'s value first,
//! as in the sequential merge whose result the op returns.

use gbtl_algebra::Scalar;
use gbtl_gpu_sim::{primitives as prim, Gpu};
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector};

use crate::util::{charge_compress, charge_expand_row_ids, charge_stream_kernel};

/// The matrix merge of `a` and `b` into `c`, union (`eWiseAdd`) or
/// intersection (`eWiseMult`): each operand's entries keyed with their tag,
/// one radix sort of the concatenation, the run boundaries found and each
/// run combined, `c` compressed.
pub fn ewise_mat<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>, b: &CsrMatrix<T>, c: &CsrMatrix<T>) {
    for m in [a, b] {
        charge_expand_row_ids(gpu, m.nrows(), m.nnz());
        charge_stream_kernel(gpu, "tag_keys", m.nnz(), 16, 8);
    }
    let n_in = a.nnz() + b.nnz();
    prim::sort::charge_radix_sort::<u64, T>(gpu, n_in);
    charge_stream_kernel(gpu, "ewise_boundaries", n_in, 8, 8);
    charge_stream_kernel(gpu, "ewise_combine", n_in, 16, 16);
    charge_compress(gpu, c.nrows(), c.nnz());
}

/// `w = u ⊕ v` on sparse vectors (union merge): the tagged indices sorted,
/// runs combined.
pub fn ewise_add_vec<T: Scalar>(gpu: &Gpu, u: &SparseVector<T>, v: &SparseVector<T>) {
    let n_in = u.nnz() + v.nnz();
    prim::sort::charge_radix_sort::<u64, T>(gpu, n_in);
    charge_stream_kernel(gpu, "ewise_vec_combine", n_in, 16, 16);
}

/// `w = u ⊗ v` on dense vectors (intersection of presence): one binary
/// `transform` over the slots.
pub fn ewise_mult_vec<T: Scalar>(gpu: &Gpu, u: &DenseVector<T>) {
    prim::map::charge_zip_transform::<Option<T>, Option<T>, Option<T>>(gpu, u.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_empty_matrices_still_runs_the_pipeline() {
        let gpu = Gpu::default();
        let a = CsrMatrix::<i64>::new(2, 2);
        ewise_mat(&gpu, &a, &a, &a);
        // 2 × (expand, tag), 4 radix passes, boundaries, combine, compress
        assert_eq!(gpu.stats().kernels_launched, 2 * 2 + 4 + 2 + 5);
    }
}
