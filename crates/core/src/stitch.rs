//! The output step: `C<M, accum, replace> = T`, written once.
//!
//! Every `Context` operation is three moves, and this module owns the first
//! and the last of them for all of the operations:
//!
//! * **check** — [`ensure`] for an operand or output shape, [`check_indices`]
//!   for an index list, and the mask rule (a mask has the output's shape)
//!   inside [`mat_out`] / [`vec_out`], which also resolve the mask. All of it
//!   runs before the backend is called, so a bad call costs an `Err` and
//!   leaves the output untouched;
//! * **compute** — the operation's one backend call, handed
//!   [`Out::push_down`]'s mask where the backend can skip masked-out work
//!   (`mxv`, `vxm`, and `mxm` under a mask that is not complemented);
//! * **write** — [`Context::write_mat`] / [`Context::write_vec`]: adopt `T`
//!   under the one pass-through rule ([`Out::adopts_t`]) or stitch it into
//!   the old output, assign, and close the operation's span from the very
//!   mask, accumulator and output that were used. Forms with no mask and no
//!   accumulator (`*_new`, `extract_*`, …) close theirs with
//!   [`Context::record`].
//!
//! The stitch itself, for `C<M, accum, replace> = T`:
//!
//! 1. `Z = accum.is_some() ? (C ∪ T combined with accum where both) : T`
//! 2. at positions the (possibly complemented) mask *allows*: result takes
//!    `Z`'s entry (or none);
//!    at positions the mask *disallows*: result keeps `C`'s old entry
//!    unless `replace` is set.
//!
//! Stitching runs on the host for every backend (as GBTL-CUDA did for
//! everything but the hot masked products).

use std::borrow::Cow;
use std::sync::Arc;

use gbtl_algebra::{BinaryOp, Scalar};
use gbtl_sparse::{CsrMatrix, DenseVector, Index, SparseVector, VecMask};
use gbtl_trace::{SpanFields, SpanStart};

use crate::backend::Backend;
use crate::descriptor::Descriptor;
use crate::error::{dim_err, GblasError, Result};
use crate::types::{Matrix, Vector, VectorRepr};
use crate::Context;

/// A shape rule: `ok`, or `DimensionMismatch` with `detail` built on failure.
#[inline]
pub(crate) fn ensure(op: &'static str, ok: bool, detail: impl FnOnce() -> String) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(dim_err(op, detail()))
    }
}

/// Every index of an extract / assign list is below `bound`.
pub(crate) fn check_indices(op: &'static str, indices: &[Index], bound: usize) -> Result<()> {
    match indices.iter().find(|&&i| i >= bound) {
        Some(&index) => Err(GblasError::IndexOutOfBounds { op, index, bound }),
        None => Ok(()),
    }
}

/// `<M, accum, replace>` of one operation, checked and resolved: everything
/// the write step needs besides `T`. Built by [`mat_out`] / [`vec_out`] only,
/// so no operation reaches its write without the mask rule having run.
pub(crate) struct Out<M, Acc> {
    mask: Option<M>,
    /// The backend was handed the mask: `T` holds nothing outside it.
    pushed: bool,
    accum: Option<Acc>,
    replace: bool,
}

/// A matrix operation's [`Out`].
pub(crate) type MatOut<'m, Acc> = Out<MatMask<'m>, Acc>;
/// A vector operation's [`Out`].
pub(crate) type VecOut<'m, Acc> = Out<ResolvedVecMask<'m>, Acc>;

impl<M, Acc> Out<M, Acc> {
    /// The one pass-through rule: whether `T` is the output as it stands.
    /// With no accumulator the output takes `T` at kept positions, and what
    /// the old output held elsewhere survives only without `replace` — so an
    /// unmasked `T` needs no stitching, nor does one the backend already
    /// confined to the mask when nothing old can survive: under `replace`,
    /// or because the old output (`old_nnz` entries) holds nothing.
    #[inline]
    fn adopts_t(&self, old_nnz: usize) -> bool {
        self.accum.is_none()
            && (self.mask.is_none() || (self.pushed && (self.replace || old_nnz == 0)))
    }
}

/// Check a matrix operation's mask against its `shape` output and resolve
/// `<M, accum, replace>`.
#[inline]
pub(crate) fn mat_out<'m, Acc>(
    op: &'static str,
    mask: Option<&'m Matrix<bool>>,
    accum: Option<Acc>,
    desc: &Descriptor,
    (m, n): (usize, usize),
) -> Result<MatOut<'m, Acc>> {
    if let Some(mk) = mask {
        ensure(op, (mk.nrows(), mk.ncols()) == (m, n), || {
            format!("mask is {}x{}, output is {m}x{n}", mk.nrows(), mk.ncols())
        })?;
    }
    Ok(Out {
        mask: mask.map(|mk| MatMask::new(mk, desc.complement_mask)),
        pushed: false,
        accum,
        replace: desc.replace,
    })
}

/// Check a vector operation's mask against its `len` output and resolve
/// `<m, accum, replace>`.
#[inline]
pub(crate) fn vec_out<'m, Acc>(
    op: &'static str,
    mask: Option<&'m Vector<bool>>,
    accum: Option<Acc>,
    desc: &Descriptor,
    len: usize,
) -> Result<VecOut<'m, Acc>> {
    if let Some(mk) = mask {
        ensure(op, mk.len() == len, || {
            format!("mask len {} != output len {len}", mk.len())
        })?;
    }
    Ok(Out {
        mask: resolve_vec_mask(mask, desc.complement_mask, len),
        pushed: false,
        accum,
        replace: desc.replace,
    })
}

impl<'m, Acc> MatOut<'m, Acc> {
    /// The mask for a backend's masked kernel — one that is not complemented
    /// is handed down as it is stored; a complemented one filters during the
    /// stitch. Taking it is what tells the write step `T` is confined to it.
    #[inline]
    pub(crate) fn push_down(&mut self) -> Option<&'m CsrMatrix<bool>> {
        let mask = self.mask.as_ref().filter(|m| !m.complement)?.mask;
        self.pushed = true;
        Some(mask)
    }
}

impl<Acc> VecOut<'_, Acc> {
    /// The keep test for a backend that skips masked-out positions (see
    /// [`MatOut::push_down`]; a vector mask is pushed down complemented or
    /// not).
    #[inline]
    pub(crate) fn push_down(&mut self) -> Option<VecMask<'_>> {
        self.pushed = self.mask.is_some();
        self.mask.as_ref().map(|k| k.view())
    }
}

/// An operation's span, opened before it resolves its operands: where it
/// started, its name and its operator's label (built only when the span is
/// live). The write step closes it.
pub(crate) struct OpSpan {
    t0: SpanStart,
    op: &'static str,
    label: fn() -> String,
}

impl<B: Backend> Context<B> {
    /// Open an operation's span (`String::new` labels one with no operator).
    #[inline]
    pub(crate) fn op_span(&self, op: &'static str, label: fn() -> String) -> OpSpan {
        let t0 = self.span();
        OpSpan { t0, op, label }
    }

    /// Close an operation's span — the record half of the write step, and
    /// all of it for a form with no mask and no accumulator. `mask` is the
    /// complement flag of the mask the output was written under; `dims`
    /// runs only when the span is live.
    #[inline]
    pub(crate) fn record(
        &self,
        span: OpSpan,
        nnz_in: usize,
        nnz_out: usize,
        mask: Option<bool>,
        accum: bool,
        dims: impl FnOnce() -> String,
    ) {
        self.span_end(span.t0, || SpanFields {
            op: span.op,
            op_label: (span.label)(),
            dims: dims(),
            nnz_in: nnz_in as u64,
            nnz_out: nnz_out as u64,
            masked: mask.is_some(),
            complemented: mask == Some(true),
            accum,
        });
    }

    /// **write**, matrix form: `c<M, accum, replace> = t`, then close the
    /// span. A shared `t` (`transpose`'s, out of the cache) is adopted as it
    /// is when it passes through and copied only to be stitched; a masked
    /// product into a fresh matrix (triangle counting's `C<L>`) passes
    /// through with no per-entry mask lookup and no per-row sort.
    #[inline]
    pub(crate) fn write_mat<T: Scalar, Acc: BinaryOp<T>>(
        &self,
        c: &mut Matrix<T>,
        t: impl Into<Arc<CsrMatrix<T>>>,
        out: MatOut<'_, Acc>,
        span: OpSpan,
        nnz_in: usize,
        dims: impl FnOnce() -> String,
    ) {
        let t = t.into();
        let (mask, accum) = (out.mask.as_ref().map(|m| m.complement), out.accum.is_some());
        *c = if out.adopts_t(c.nnz()) {
            debug_assert!(t
                .iter()
                .all(|(i, j, _)| out.mask.as_ref().is_none_or(|m| m.allows(i, j))));
            Matrix::from_shared(t)
        } else {
            let t = Arc::try_unwrap(t).unwrap_or_else(|shared| (*shared).clone());
            Matrix::from_csr(stitch_mat(c.csr(), t, out.mask, out.accum, out.replace))
        };
        self.record(span, nnz_in, c.nnz(), mask, accum, dims);
    }

    /// **write**, vector form: `w<m, accum, replace> = t`, then close the
    /// span. A masked level of a traversal (mask pushed down, `replace`, no
    /// accumulator) passes through: no O(n) work, nothing allocated; so does
    /// a masked product into a fresh vector.
    #[inline]
    pub(crate) fn write_vec<T: Scalar, Acc: BinaryOp<T>>(
        &self,
        w: &mut Vector<T>,
        t: impl Into<Vector<T>>,
        out: VecOut<'_, Acc>,
        span: OpSpan,
        nnz_in: usize,
        dims: impl FnOnce() -> String,
    ) {
        let t = t.into();
        let (mask, accum) = (out.mask.as_ref().map(|k| k.complement), out.accum.is_some());
        let keep = out.mask.as_ref().map(|k| k.view());
        *w = if out.adopts_t(w.nnz()) {
            debug_assert!(t.iter().all(|(i, _)| keep.is_none_or(|k| k.keeps(i))));
            t
        } else {
            match t.into_repr() {
                VectorRepr::Dense(t) => stitch_dense_vec(w, t, keep, out.accum, out.replace).into(),
                VectorRepr::Sparse(t) => {
                    stitch_sparse_vec(w, t, keep, out.accum, out.replace).into()
                }
            }
        };
        self.record(span, nnz_in, w.nnz(), mask, accum, dims);
    }
}

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

/// The rows a priced traversal level's pull computes: those its `visited`
/// set leaves unvisited — a solo level's `visited` vector, if the level is
/// masked, resolved as a complemented mask.
pub(crate) fn unvisited(visited: Option<&Vector<bool>>, n: usize) -> Option<ResolvedVecMask<'_>> {
    resolve_vec_mask(visited, true, n)
}

/// [`unvisited`] for one member of a fused level over `n` vertices: its
/// row of the k×n visited bitmap, packed 64 vertices a word, read as it is.
pub(crate) fn unvisited_row(visited: &[u64], n: usize) -> VecMask<'_> {
    VecMask::unset_bits(visited, n)
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
    DenseVector::from_fn(t.len(), |i| {
        if keep.is_none_or(|k| k.keeps(i)) {
            match (&accum, old.get(i), t.get(i)) {
                (Some(op), Some(o), Some(nv)) => Some(op.apply(o, nv)),
                (Some(_), Some(o), None) => Some(o),
                (_, _, nv) => nv,
            }
        } else if !replace {
            old.get(i)
        } else {
            None
        }
    })
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
    // Small vectors and frontiers: a positional merge through the dense
    // stitcher.
    stitch_dense_vec(old, t.to_dense(), keep, accum, replace).to_sparse()
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
