//! `eWiseAdd` (union) and `eWiseMult` (intersection) — matrix and vector.

// GraphBLAS operation signatures (output, mask, accumulator, operator,
// inputs, descriptor) are fixed by the spec.
#![allow(clippy::too_many_arguments)]

use gbtl_algebra::{BinaryOp, Scalar};
use gbtl_trace::short_type_name;

use crate::backend::Backend;
use crate::descriptor::Descriptor;
use crate::error::{dim_err, Result};
use crate::stitch::{ensure, mat_out, vec_out, VecOut};
use crate::types::{Matrix, Vector};
use crate::Context;

impl<B: Backend> Context<B> {
    /// `C<M, accum> = A ⊕ B` — structure union; `op` where both present.
    pub fn ewise_add_mat<T, Op, Acc>(
        &self,
        c: &mut Matrix<T>,
        mask: Option<&Matrix<bool>>,
        accum: Option<Acc>,
        op: Op,
        a: &Matrix<T>,
        b: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Op: BinaryOp<T>,
        Acc: BinaryOp<T>,
    {
        self.ewise_mat_impl(c, mask, accum, op, a, b, desc, true)
    }

    /// `C<M, accum> = A ⊗ B` — structure intersection.
    pub fn ewise_mult_mat<T, Op, Acc>(
        &self,
        c: &mut Matrix<T>,
        mask: Option<&Matrix<bool>>,
        accum: Option<Acc>,
        op: Op,
        a: &Matrix<T>,
        b: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Op: BinaryOp<T>,
        Acc: BinaryOp<T>,
    {
        self.ewise_mat_impl(c, mask, accum, op, a, b, desc, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn ewise_mat_impl<T, Op, Acc>(
        &self,
        c: &mut Matrix<T>,
        mask: Option<&Matrix<bool>>,
        accum: Option<Acc>,
        op: Op,
        a: &Matrix<T>,
        b: &Matrix<T>,
        desc: &Descriptor,
        union: bool,
    ) -> Result<()>
    where
        T: Scalar,
        Op: BinaryOp<T>,
        Acc: BinaryOp<T>,
    {
        let (which, name) = if union {
            ("eWiseAdd", "ewise_add_mat")
        } else {
            ("eWiseMult", "ewise_mult_mat")
        };
        let span = self.op_span(name, short_type_name::<Op>);
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        let b_csr = self.resolve_operand(b, desc.transpose_b);
        let (nr, nc) = (a_csr.nrows(), a_csr.ncols());
        ensure("ewise", (nr, nc) == (b_csr.nrows(), b_csr.ncols()), || {
            format!("{which}: {nr}x{nc} vs {}x{}", b_csr.nrows(), b_csr.ncols())
        })?;
        ensure("ewise", (c.nrows(), c.ncols()) == (nr, nc), || {
            format!("{which}: output {}x{}", c.nrows(), c.ncols())
        })?;
        // the mask rule's one error, in the wording eWise errors have always
        // had (they name the variant)
        let out = mat_out("ewise", mask, accum, desc, (nr, nc))
            .map_err(|_| dim_err("ewise", format!("{which}: mask shape")))?;
        let t = if union {
            self.backend().ewise_add_mat(&a_csr, &b_csr, op)
        } else {
            self.backend().ewise_mult_mat(&a_csr, &b_csr, op)
        };
        self.write_mat(c, t, out, span, a_csr.nnz() + b_csr.nnz(), || {
            format!("{nr}x{nc}")
        });
        Ok(())
    }

    /// `w<m, accum> = u ⊕ v` — vector union merge.
    pub fn ewise_add_vec<T, Op, Acc>(
        &self,
        w: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        accum: Option<Acc>,
        op: Op,
        u: &Vector<T>,
        v: &Vector<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Op: BinaryOp<T>,
        Acc: BinaryOp<T>,
    {
        let span = self.op_span("ewise_add_vec", short_type_name::<Op>);
        let out = ewise_vec_out("eWiseAdd", w, mask, accum, u, v, desc)?;
        let t = self
            .backend()
            .ewise_add_vec(&u.sparse_view(), &v.sparse_view(), op);
        self.write_vec(w, t, out, span, u.nnz() + v.nnz(), || {
            format!("{}", u.len())
        });
        Ok(())
    }

    /// `w<m, accum> = u ⊗ v` — vector intersection merge.
    pub fn ewise_mult_vec<T, Op, Acc>(
        &self,
        w: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        accum: Option<Acc>,
        op: Op,
        u: &Vector<T>,
        v: &Vector<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Op: BinaryOp<T>,
        Acc: BinaryOp<T>,
    {
        let span = self.op_span("ewise_mult_vec", short_type_name::<Op>);
        let out = ewise_vec_out("eWiseMult", w, mask, accum, u, v, desc)?;
        let t = self
            .backend()
            .ewise_mult_vec(&u.dense_view(), &v.dense_view(), op);
        self.write_vec(w, t, out, span, u.nnz() + v.nnz(), || {
            format!("{}", u.len())
        });
        Ok(())
    }
}

/// The check half of both vector merges: `u`, `v` and `w` are one length,
/// and the mask is too.
fn ewise_vec_out<'m, T: Scalar, Acc>(
    which: &'static str,
    w: &Vector<T>,
    mask: Option<&'m Vector<bool>>,
    accum: Option<Acc>,
    u: &Vector<T>,
    v: &Vector<T>,
    desc: &Descriptor,
) -> Result<VecOut<'m, Acc>> {
    ensure("ewise", u.len() == v.len() && w.len() == u.len(), || {
        format!("{which}: w={} u={} v={}", w.len(), u.len(), v.len())
    })?;
    // as in `ewise_mat_impl`: the mask rule's error, in eWise's wording
    vec_out("ewise", mask, accum, desc, w.len()).map_err(|_| {
        let len = mask.map_or(0, Vector::len);
        dim_err("ewise", format!("{which}: mask len {len}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::no_accum;
    use gbtl_algebra::{Min, Plus, Second, Times};

    fn m(entries: &[(usize, usize, i64)], r: usize, c: usize) -> Matrix<i64> {
        Matrix::build(r, c, entries.iter().copied(), Second::new()).unwrap()
    }

    #[test]
    fn matrix_union_and_intersection() {
        let ctx = Context::sequential();
        let a = m(&[(0, 0, 1), (0, 1, 2)], 2, 2);
        let b = m(&[(0, 1, 10), (1, 1, 3)], 2, 2);
        let mut add = Matrix::new(2, 2);
        ctx.ewise_add_mat(
            &mut add,
            None,
            no_accum(),
            Plus::new(),
            &a,
            &b,
            &Descriptor::new(),
        )
        .unwrap();
        assert_eq!(add.get(0, 0), Some(1));
        assert_eq!(add.get(0, 1), Some(12));
        assert_eq!(add.get(1, 1), Some(3));

        let mut mult = Matrix::new(2, 2);
        ctx.ewise_mult_mat(
            &mut mult,
            None,
            no_accum(),
            Times::new(),
            &a,
            &b,
            &Descriptor::new(),
        )
        .unwrap();
        assert_eq!(mult.nnz(), 1);
        assert_eq!(mult.get(0, 1), Some(20));
    }

    #[test]
    fn backends_agree_on_ewise() {
        let a = m(&[(0, 0, 1), (1, 1, 5), (1, 0, 2)], 2, 2);
        let b = m(&[(0, 0, 7), (1, 0, 1)], 2, 2);
        let mut c1 = Matrix::new(2, 2);
        let mut c2 = Matrix::new(2, 2);
        Context::sequential()
            .ewise_add_mat(
                &mut c1,
                None,
                no_accum(),
                Min::new(),
                &a,
                &b,
                &Descriptor::new(),
            )
            .unwrap();
        Context::cuda_default()
            .ewise_add_mat(
                &mut c2,
                None,
                no_accum(),
                Min::new(),
                &a,
                &b,
                &Descriptor::new(),
            )
            .unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn vector_ewise() {
        let ctx = Context::sequential();
        let mut u = Vector::new(3);
        u.set(0, 1i64);
        u.set(1, 2);
        let mut v = Vector::new(3);
        v.set(1, 10i64);
        v.set(2, 20);
        let mut add = Vector::new(3);
        ctx.ewise_add_vec(
            &mut add,
            None,
            no_accum(),
            Plus::new(),
            &u,
            &v,
            &Descriptor::new(),
        )
        .unwrap();
        assert_eq!(add.get(0), Some(1));
        assert_eq!(add.get(1), Some(12));
        assert_eq!(add.get(2), Some(20));

        let mut mult = Vector::new(3);
        ctx.ewise_mult_vec(
            &mut mult,
            None,
            no_accum(),
            Times::new(),
            &u,
            &v,
            &Descriptor::new(),
        )
        .unwrap();
        assert_eq!(mult.nnz(), 1);
        assert_eq!(mult.get(1), Some(20));
    }

    #[test]
    fn masked_ewise_add_vec() {
        let ctx = Context::sequential();
        let mut u = Vector::new(3);
        u.set(0, 1i64);
        let mut v = Vector::new(3);
        v.set(1, 2i64);
        let mut mask = Vector::new(3);
        mask.set(1, true);
        let mut w = Vector::new(3);
        ctx.ewise_add_vec(
            &mut w,
            Some(&mask),
            no_accum(),
            Plus::new(),
            &u,
            &v,
            &Descriptor::new().replace(),
        )
        .unwrap();
        assert_eq!(w.get(0), None); // masked out
        assert_eq!(w.get(1), Some(2));
    }

    #[test]
    fn dim_mismatch_errors() {
        let ctx = Context::sequential();
        let a = m(&[], 2, 2);
        let b = m(&[], 2, 3);
        let mut c = Matrix::new(2, 2);
        assert!(ctx
            .ewise_add_mat(
                &mut c,
                None,
                no_accum(),
                Plus::new(),
                &a,
                &b,
                &Descriptor::new()
            )
            .is_err());
    }
}
