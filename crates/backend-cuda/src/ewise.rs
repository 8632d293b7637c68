//! Elementwise merges on the device: the tagged concat–sort–reduce pipeline.
//!
//! A GPU has no cheap per-row two-pointer merge, so (following CUSP) both
//! `eWiseAdd` and `eWiseMult` concatenate the operands' triples, sort them
//! by a *tagged* key — `(i,j)` in the high bits, the operand tag in the low
//! bit — and combine runs. The tag keeps equal coordinates in operand order,
//! so non-commutative ops (`Minus`, `Div`, `First`) combine correctly.

use gbtl_algebra::{BinaryOp, Scalar};
use gbtl_gpu_sim::{primitives as prim, Gpu};
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector};

use crate::util::{assert_key_encodable, compress_sorted_keys, entry_keys};

/// `m`'s entries as tagged keys: `(i,j)` in the high bits, `tag` in the low.
fn tagged_keys<T: Scalar>(gpu: &Gpu, m: &CsrMatrix<T>, tag: u64) -> Vec<u64> {
    let n = m.ncols() as u64;
    let keys = entry_keys(gpu, m, |i, j| (i as u64 * n + j as u64) * 2 + tag);
    super::charge_stream_kernel(gpu, "tag_keys", m.nnz(), 16, 8);
    keys
}

/// Combine runs of equal *untagged* keys in tag-sorted `(keys, vals)`. Runs
/// have length 1 (one operand; kept only by a union merge) or 2 (both, A
/// first because of the tag bit) — the operands hold no duplicates.
fn combine_tagged_runs<T: Scalar, Op: BinaryOp<T>>(
    keys: &[u64],
    vals: &[T],
    op: Op,
    union: bool,
) -> (Vec<u64>, Vec<T>) {
    let (mut out_keys, mut out_vals) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < keys.len() {
        let key = keys[i] >> 1;
        if keys.get(i + 1).is_some_and(|&next| next >> 1 == key) {
            out_keys.push(key);
            out_vals.push(op.apply(vals[i], vals[i + 1]));
            i += 2;
        } else {
            if union {
                out_keys.push(key);
                out_vals.push(vals[i]);
            }
            i += 1;
        }
    }
    (out_keys, out_vals)
}

/// `C = A ⊕ B` — union merge (op applied where both present).
pub fn ewise_add_mat<T, Op>(gpu: &Gpu, a: &CsrMatrix<T>, b: &CsrMatrix<T>, op: Op) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    merge_mat(gpu, a, b, op, true)
}

/// `C = A ⊗ B` — intersection merge (entries present in both operands only).
pub fn ewise_mult_mat<T, Op>(gpu: &Gpu, a: &CsrMatrix<T>, b: &CsrMatrix<T>, op: Op) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    merge_mat(gpu, a, b, op, false)
}

fn merge_mat<T, Op>(
    gpu: &Gpu,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    op: Op,
    union: bool,
) -> CsrMatrix<T>
where
    T: Scalar,
    Op: BinaryOp<T>,
{
    assert_eq!(
        (a.nrows(), a.ncols()),
        (b.nrows(), b.ncols()),
        "eWise shape mismatch"
    );
    assert_key_encodable(a.nrows(), a.ncols());
    let mut keys = tagged_keys(gpu, a, 0);
    keys.extend(tagged_keys(gpu, b, 1));
    let vals = [a.vals(), b.vals()].concat();
    let n_in = keys.len();
    let (skeys, svals) = prim::sort_pairs(gpu, &keys, &vals);

    // The device finds the run boundaries, then combines each run.
    super::charge_stream_kernel(gpu, "ewise_boundaries", n_in, 8, 8);
    let (out_keys, out_vals) = combine_tagged_runs(&skeys, &svals, op, union);
    super::charge_stream_kernel(gpu, "ewise_combine", n_in, 16, 16);
    compress_sorted_keys(gpu, a.nrows(), a.ncols(), &out_keys, out_vals)
}

/// `w = u ⊕ v` on sparse vectors (union merge).
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
    assert_eq!(u.len(), v.len(), "eWiseAdd vector length mismatch");
    let keys: Vec<u64> = u
        .indices()
        .iter()
        .map(|&i| i as u64 * 2)
        .chain(v.indices().iter().map(|&i| i as u64 * 2 + 1))
        .collect();
    let vals: Vec<T> = u.values().iter().chain(v.values()).copied().collect();
    let (skeys, svals) = prim::sort_pairs(gpu, &keys, &vals);
    let (idx, out) = combine_tagged_runs(&skeys, &svals, op, true);
    super::charge_stream_kernel(gpu, "ewise_vec_combine", skeys.len(), 16, 16);
    let idx = idx.into_iter().map(|k| k as usize).collect();
    SparseVector::from_sorted(u.len(), idx, out).expect("merge preserves order")
}

/// `w = u ⊗ v` on dense vectors (intersection of presence).
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
    assert_eq!(u.len(), v.len(), "eWiseMult vector length mismatch");
    let opts = prim::zip_transform(gpu, u.options(), v.options(), |a, b| match (a, b) {
        (Some(x), Some(y)) => Some(op.apply(*x, *y)),
        _ => None,
    });
    DenseVector::from_options(opts)
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
