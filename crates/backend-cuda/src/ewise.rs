//! Elementwise merges on the device: the tagged concat–sort–reduce pipeline.
//!
//! A GPU has no cheap per-row two-pointer merge, so (following CUSP) both
//! `eWiseAdd` and `eWiseMult` concatenate the operands' triples, sort them
//! by a *tagged* key — `(i,j)` in the high bits, the operand tag in the low
//! bit — and combine runs. The tag keeps equal coordinates in operand order,
//! so a non-commutative op (`Minus`, `Div`, `First`) sees `A`'s value first,
//! as in the sequential merge whose result each function returns.

use gbtl_algebra::{BinaryOp, Scalar};
use gbtl_gpu_sim::{primitives as prim, Gpu};
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector};

use crate::util::{charge_compress, charge_expand_row_ids, charge_stream_kernel};

/// `C = A ⊕ B` — union merge (op applied where both present).
pub fn ewise_add_mat<T, Op>(gpu: &Gpu, a: &CsrMatrix<T>, b: &CsrMatrix<T>, op: Op) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    let c = gbtl_backend_seq::ewise_add_mat(a, b, op);
    charge_merge_mat(gpu, a, b, &c);
    c
}

/// `C = A ⊗ B` — intersection merge (entries present in both operands only).
pub fn ewise_mult_mat<T, Op>(gpu: &Gpu, a: &CsrMatrix<T>, b: &CsrMatrix<T>, op: Op) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    let c = gbtl_backend_seq::ewise_mult_mat(a, b, op);
    charge_merge_mat(gpu, a, b, &c);
    c
}

/// Charge the matrix merge of `a` and `b` into `c`: each operand's entries
/// keyed with their tag, one radix sort of the concatenation, the run
/// boundaries found and each run combined, `c` compressed.
fn charge_merge_mat<T: Scalar>(gpu: &Gpu, a: &CsrMatrix<T>, b: &CsrMatrix<T>, c: &CsrMatrix<T>) {
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
pub fn ewise_add_vec<T, Op>(
    gpu: &Gpu,
    u: &SparseVector<T>,
    v: &SparseVector<T>,
    op: Op,
) -> SparseVector<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    let n_in = u.nnz() + v.nnz();
    prim::sort::charge_radix_sort::<u64, T>(gpu, n_in);
    charge_stream_kernel(gpu, "ewise_vec_combine", n_in, 16, 16);
    gbtl_backend_seq::ewise_add_vec(u, v, op)
}

/// `w = u ⊗ v` on dense vectors (intersection of presence): one binary
/// `transform` over the slots.
pub fn ewise_mult_vec<T, Op>(
    gpu: &Gpu,
    u: &DenseVector<T>,
    v: &DenseVector<T>,
    op: Op,
) -> DenseVector<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    prim::map::charge_zip_transform::<Option<T>, Option<T>, Option<T>>(gpu, u.len());
    gbtl_backend_seq::ewise_mult_vec(u, v, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{Minus, Plus, Times};
    use gbtl_sparse::CooMatrix;

    fn mat(entries: &[(usize, usize, i64)], m: usize, n: usize) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(m, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn add_matches_seq() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 0, 1), (0, 2, 2), (1, 1, 3)], 2, 3);
        let b = mat(&[(0, 2, 10), (1, 0, 4)], 2, 3);
        let expected = gbtl_backend_seq::ewise_add_mat(&a, &b, Plus::<i64>::new());
        let got = ewise_add_mat(&gpu, &a, &b, Plus::<i64>::new());
        assert_eq!(got, expected);
    }

    #[test]
    fn mult_matches_seq() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 0, 3), (0, 2, 2), (1, 1, 4)], 2, 3);
        let b = mat(&[(0, 0, 5), (0, 2, 7), (1, 0, 9)], 2, 3);
        let expected = gbtl_backend_seq::ewise_mult_mat(&a, &b, Times::<i64>::new());
        let got = ewise_mult_mat(&gpu, &a, &b, Times::<i64>::new());
        assert_eq!(got, expected);
    }

    #[test]
    fn non_commutative_op_preserves_operand_order() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 0, 10)], 1, 1);
        let b = mat(&[(0, 0, 3)], 1, 1);
        let got = ewise_add_mat(&gpu, &a, &b, Minus::<i64>::new());
        assert_eq!(got.get(0, 0), Some(7)); // a - b, not b - a
    }

    #[test]
    fn add_vec_matches_seq() {
        let gpu = Gpu::default();
        let mut u = SparseVector::new(6);
        u.set(1, 10i64);
        u.set(4, 40);
        let mut v = SparseVector::new(6);
        v.set(0, 1i64);
        v.set(4, 4);
        let expected = gbtl_backend_seq::ewise_add_vec(&u, &v, Plus::<i64>::new());
        let got = ewise_add_vec(&gpu, &u, &v, Plus::<i64>::new());
        assert_eq!(got, expected);
    }

    #[test]
    fn mult_vec_intersects() {
        let gpu = Gpu::default();
        let mut u = DenseVector::new(3);
        u.set(0, 2i64);
        u.set(1, 3);
        let mut v = DenseVector::new(3);
        v.set(1, 10i64);
        v.set(2, 10);
        let got = ewise_mult_vec(&gpu, &u, &v, Times::<i64>::new());
        assert_eq!(got.nnz(), 1);
        assert_eq!(got.get(1), Some(30));
    }

    #[test]
    fn empty_operands() {
        let gpu = Gpu::default();
        let a = CsrMatrix::<i64>::new(2, 2);
        let b = mat(&[(1, 1, 5)], 2, 2);
        let got = ewise_add_mat(&gpu, &a, &b, Plus::<i64>::new());
        assert_eq!(got.nnz(), 1);
        let got = ewise_mult_mat(&gpu, &a, &b, Times::<i64>::new());
        assert_eq!(got.nnz(), 0);
    }
}
