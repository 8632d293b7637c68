//! Mask/accumulator stitching — the output-merge semantics of every
//! GraphBLAS operation.
//!
//! For an operation `C<M, accum, replace> = T`:
//!
//! 1. `Z = accum.is_some() ? (C ∪ T combined with accum where both) : T`
//! 2. at positions the (possibly complemented) mask *allows*: result takes
//!    `Z`'s entry (or none);
//!    at positions the mask *disallows*: result keeps `C`'s old entry
//!    unless `replace` is set.
//!
//! Stitching runs on the host for both backends (as GBTL-CUDA did for
//! everything but the hot masked products); the performance-relevant
//! masking — skipping work *inside* `mxv`/`vxm`/`mxm` — is pushed down to
//! the backends separately.

use gbtl_algebra::{BinaryOp, Scalar};
use std::borrow::Cow;

use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector, VecMask};

use crate::types::{Matrix, Vector, VectorRepr};

/// Resolved matrix-mask view: answers "is position (i, j) writable?".
pub(crate) struct MatMask<'a> {
    mask: &'a CsrMatrix<bool>,
    complement: bool,
}

impl<'a> MatMask<'a> {
    pub(crate) fn new(mask: &'a Matrix<bool>, complement: bool) -> MatMask<'a> {
        MatMask {
            mask: mask.csr(),
            complement,
        }
    }

    #[inline]
    fn allows(&self, i: usize, j: usize) -> bool {
        self.mask.get(i, j).is_some() != self.complement
    }
}

/// Stitch a computed matrix `t` into the old output `c`.
pub(crate) fn stitch_mat<T, Acc>(
    c: &CsrMatrix<T>,
    t: CsrMatrix<T>,
    mask: Option<MatMask<'_>>,
    accum: Option<Acc>,
    replace: bool,
) -> CsrMatrix<T>
where
    T: Scalar,
    Acc: BinaryOp<T>,
{
    let z = match accum {
        Some(op) => gbtl_backend_seq::ewise_add_mat(c, &t, op),
        None => t,
    };
    let mask = match mask {
        None => return z,
        Some(m) => m,
    };
    // Merge per row: allowed positions take z, disallowed keep old c
    // (unless replace). Both rows are sorted; outputs stay sorted.
    let m = c.nrows();
    let mut row_ptr = Vec::with_capacity(m + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    let mut staged: Vec<(usize, T)> = Vec::new();
    for i in 0..m {
        staged.clear();
        let (zc, zv) = z.row(i);
        for (&j, &v) in zc.iter().zip(zv) {
            if mask.allows(i, j) {
                staged.push((j, v));
            }
        }
        if !replace {
            let (cc, cv) = c.row(i);
            for (&j, &v) in cc.iter().zip(cv) {
                if !mask.allows(i, j) {
                    staged.push((j, v));
                }
            }
        }
        staged.sort_unstable_by_key(|&(j, _)| j);
        for &(j, v) in &staged {
            col_idx.push(j);
            vals.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts_unchecked(m, c.ncols(), row_ptr, col_idx, vals)
}

/// A vector mask resolved for one operation: the mask vector's bitmap
/// storage — borrowed as is when the vector already holds it, which is how
/// every traversal keeps its `visited` set; densified once otherwise — and
/// the descriptor's complement flag.
pub(crate) struct ResolvedVecMask<'a> {
    bitmap: Cow<'a, DenseVector<bool>>,
    complement: bool,
}

impl ResolvedVecMask<'_> {
    /// The keep test kernels and stitchers read.
    #[inline]
    pub(crate) fn view(&self) -> VecMask<'_> {
        VecMask::new(&self.bitmap, self.complement)
    }
}

/// Resolve a vector mask + complement flag. O(1) for a bitmap-stored mask.
pub(crate) fn resolve_vec_mask(
    mask: Option<&Vector<bool>>,
    complement: bool,
    n: usize,
) -> Option<ResolvedVecMask<'_>> {
    let mask = mask?;
    debug_assert_eq!(mask.len(), n);
    let bitmap = match mask.repr() {
        VectorRepr::Dense(d) => Cow::Borrowed(d),
        VectorRepr::Sparse(s) => Cow::Owned(s.to_dense()),
    };
    Some(ResolvedVecMask { bitmap, complement })
}

/// Stitch a computed dense vector into the old output.
pub(crate) fn stitch_dense_vec<T, Acc>(
    old: &Vector<T>,
    t: DenseVector<T>,
    keep: Option<VecMask<'_>>,
    accum: Option<Acc>,
    replace: bool,
) -> DenseVector<T>
where
    T: Scalar,
    Acc: BinaryOp<T>,
{
    let n = t.len();
    let mut out = DenseVector::new(n);
    for i in 0..n {
        let allowed = keep.is_none_or(|k| k.keeps(i));
        if allowed {
            let old_v = old.get(i);
            let new_v = t.get(i);
            let z = match (&accum, old_v, new_v) {
                (Some(op), Some(o), Some(nv)) => Some(op.apply(o, nv)),
                (Some(_), Some(o), None) => Some(o),
                (_, _, nv) => nv,
            };
            if let Some(v) = z {
                out.set(i, v);
            }
        } else if !replace {
            if let Some(v) = old.get(i) {
                out.set(i, v);
            }
        }
    }
    out
}

/// Stitch a computed sparse vector into the old output.
pub(crate) fn stitch_sparse_vec<T, Acc>(
    old: &Vector<T>,
    t: SparseVector<T>,
    keep: Option<VecMask<'_>>,
    accum: Option<Acc>,
    replace: bool,
) -> SparseVector<T>
where
    T: Scalar,
    Acc: BinaryOp<T>,
{
    // Small vectors and frontiers: go through the dense stitcher when a
    // mask or accumulator forces a positional merge; pure results pass
    // through untouched.
    if keep.is_none() && accum.is_none() {
        return t;
    }
    let dense = stitch_dense_vec(old, t.to_dense(), keep, accum, replace);
    dense.to_sparse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{Plus, Second};
    use gbtl_sparse::CooMatrix;

    fn mat(entries: &[(usize, usize, i64)], m: usize, n: usize) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(m, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    fn no_accum() -> Option<Second<i64>> {
        None
    }

    #[test]
    fn no_mask_no_accum_is_passthrough() {
        let c = mat(&[(0, 0, 1)], 2, 2);
        let t = mat(&[(1, 1, 9)], 2, 2);
        let out = stitch_mat(&c, t.clone(), None, no_accum(), false);
        assert_eq!(out, t);
    }

    #[test]
    fn accum_merges_old_and_new() {
        let c = mat(&[(0, 0, 1), (0, 1, 2)], 2, 2);
        let t = mat(&[(0, 1, 10), (1, 0, 5)], 2, 2);
        let out = stitch_mat(&c, t, None, Some(Plus::<i64>::new()), false);
        assert_eq!(out.get(0, 0), Some(1)); // old only
        assert_eq!(out.get(0, 1), Some(12)); // both -> accum
        assert_eq!(out.get(1, 0), Some(5)); // new only
    }

    #[test]
    fn mask_keeps_old_outside_unless_replace() {
        let c = mat(&[(0, 0, 1), (1, 1, 2)], 2, 2);
        let t = mat(&[(0, 0, 100), (1, 1, 200)], 2, 2);
        let mask_m = Matrix::from_csr(mat(&[(0, 0, 1)], 2, 2).clone());
        // structural bool mask: convert
        let mask_b = Matrix::build(2, 2, [(0usize, 0usize, true)], Second::<bool>::new()).unwrap();
        let _ = mask_m;

        // no replace: masked-out (1,1) keeps old value 2
        let out = stitch_mat(
            &c,
            t.clone(),
            Some(MatMask::new(&mask_b, false)),
            no_accum(),
            false,
        );
        assert_eq!(out.get(0, 0), Some(100));
        assert_eq!(out.get(1, 1), Some(2));

        // replace: masked-out (1,1) cleared
        let out = stitch_mat(&c, t, Some(MatMask::new(&mask_b, false)), no_accum(), true);
        assert_eq!(out.get(0, 0), Some(100));
        assert_eq!(out.get(1, 1), None);
    }

    #[test]
    fn complement_mask_inverts() {
        let c = mat(&[], 2, 2);
        let t = mat(&[(0, 0, 1), (1, 1, 2)], 2, 2);
        let mask_b = Matrix::build(2, 2, [(0usize, 0usize, true)], Second::<bool>::new()).unwrap();
        let out = stitch_mat(&c, t, Some(MatMask::new(&mask_b, true)), no_accum(), false);
        assert_eq!(out.get(0, 0), None); // masked out by complement
        assert_eq!(out.get(1, 1), Some(2));
    }

    #[test]
    fn resolve_vec_mask_complement() {
        let mut m = Vector::new(4);
        m.set(1, true);
        m.set(3, true);
        let kept = |m: &Vector<bool>, complement: bool| -> Vec<bool> {
            let resolved = resolve_vec_mask(Some(m), complement, 4).unwrap();
            (0..4).map(|i| resolved.view().keeps(i)).collect()
        };
        // the sparse and the bitmap representation resolve alike
        for rep in 0..2 {
            if rep == 1 {
                m.densify();
            }
            assert_eq!(kept(&m, false), vec![false, true, false, true]);
            assert_eq!(kept(&m, true), vec![true, false, true, false]);
        }
        assert!(resolve_vec_mask(None, false, 4).is_none());
    }

    #[test]
    fn dense_vec_stitch_semantics() {
        let mut old = Vector::new(3);
        old.set(0, 1i64);
        old.set(2, 3);
        let mut t = DenseVector::new(3);
        t.set(0, 10i64);
        t.set(1, 20);
        let mut mask = Vector::new(3);
        mask.set(0, true);
        mask.set(1, true);
        let resolved = resolve_vec_mask(Some(&mask), false, 3).unwrap();
        let keep = resolved.view();

        // accum + mask + no-replace
        let out = stitch_dense_vec(&old, t.clone(), Some(keep), Some(Plus::<i64>::new()), false);
        assert_eq!(out.get(0), Some(11)); // accum(1, 10)
        assert_eq!(out.get(1), Some(20)); // new only
        assert_eq!(out.get(2), Some(3)); // masked out, kept

        // replace clears masked-out
        let out = stitch_dense_vec(&old, t, Some(keep), no_accum(), true);
        assert_eq!(out.get(0), Some(10));
        assert_eq!(out.get(2), None);
    }

    #[test]
    fn sparse_vec_stitch_passthrough_when_trivial() {
        let old = Vector::<i64>::new(3);
        let mut t = SparseVector::new(3);
        t.set(1, 5i64);
        let out = stitch_sparse_vec(&old, t.clone(), None, no_accum(), false);
        assert_eq!(out, t);
    }
}
