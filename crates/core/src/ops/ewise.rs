//! `eWiseAdd` (union) and `eWiseMult` (intersection) — matrix and vector.

// GraphBLAS operation signatures (output, mask, accumulator, operator,
// inputs, descriptor) are fixed by the spec.
#![allow(clippy::too_many_arguments)]

use gbtl_algebra::{BinaryOp, Scalar};
use gbtl_trace::SpanFields;

use crate::backend::Backend;
use crate::descriptor::Descriptor;
use crate::error::{dim_err, Result};
use crate::stitch::{resolve_vec_mask, stitch_dense_vec, stitch_mat, stitch_sparse_vec, MatMask};
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
        let which = if union { "eWiseAdd" } else { "eWiseMult" };
        let t0 = self.span();
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        let b_csr = self.resolve_operand(b, desc.transpose_b);
        if (a_csr.nrows(), a_csr.ncols()) != (b_csr.nrows(), b_csr.ncols()) {
            return Err(dim_err(
                "ewise",
                format!(
                    "{which}: {}x{} vs {}x{}",
                    a_csr.nrows(),
                    a_csr.ncols(),
                    b_csr.nrows(),
                    b_csr.ncols()
                ),
            ));
        }
        if (c.nrows(), c.ncols()) != (a_csr.nrows(), a_csr.ncols()) {
            return Err(dim_err(
                "ewise",
                format!("{which}: output {}x{}", c.nrows(), c.ncols()),
            ));
        }
        if let Some(mk) = mask {
            if (mk.nrows(), mk.ncols()) != (c.nrows(), c.ncols()) {
                return Err(dim_err("ewise", format!("{which}: mask shape")));
            }
        }
        let t = if union {
            self.backend().ewise_add_mat(&a_csr, &b_csr, op)
        } else {
            self.backend().ewise_mult_mat(&a_csr, &b_csr, op)
        };
        let nnz_in = (a_csr.nnz() + b_csr.nnz()) as u64;
        let (masked, has_accum) = (mask.is_some(), accum.is_some());
        let mat_mask = mask.map(|mk| MatMask::new(mk, desc.complement_mask));
        *c = Matrix::from_csr(stitch_mat(c.csr(), t, mat_mask, accum, desc.replace));
        let nnz_out = c.nnz() as u64;
        let (nr, nc) = (c.nrows(), c.ncols());
        self.span_end(t0, || SpanFields {
            op: if union {
                "ewise_add_mat"
            } else {
                "ewise_mult_mat"
            },
            op_label: gbtl_trace::short_type_name::<Op>(),
            dims: format!("{nr}x{nc}"),
            nnz_in,
            nnz_out,
            masked,
            complemented: masked && desc.complement_mask,
            accum: has_accum,
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
        self.check_vec_dims("eWiseAdd", w, mask, u, v)?;
        let t0 = self.span();
        let nnz_in = (u.nnz() + v.nnz()) as u64;
        let (masked, has_accum) = (mask.is_some(), accum.is_some());
        let t = self
            .backend()
            .ewise_add_vec(&u.to_sparse_repr(), &v.to_sparse_repr(), op);
        let keep = resolve_vec_mask(mask, desc.complement_mask, w.len());
        *w = Vector::from(stitch_sparse_vec(
            w,
            t,
            keep.as_ref().map(|k| k.view()),
            accum,
            desc.replace,
        ));
        let (len, nnz_out) = (w.len(), w.nnz() as u64);
        self.span_end(t0, || SpanFields {
            op: "ewise_add_vec",
            op_label: gbtl_trace::short_type_name::<Op>(),
            dims: format!("{len}"),
            nnz_in,
            nnz_out,
            masked,
            complemented: masked && desc.complement_mask,
            accum: has_accum,
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
        self.check_vec_dims("eWiseMult", w, mask, u, v)?;
        let t0 = self.span();
        let nnz_in = (u.nnz() + v.nnz()) as u64;
        let (masked, has_accum) = (mask.is_some(), accum.is_some());
        let t = self
            .backend()
            .ewise_mult_vec(&u.to_dense_repr(), &v.to_dense_repr(), op);
        let keep = resolve_vec_mask(mask, desc.complement_mask, w.len());
        *w = Vector::from(stitch_dense_vec(
            w,
            t,
            keep.as_ref().map(|k| k.view()),
            accum,
            desc.replace,
        ));
        let (len, nnz_out) = (w.len(), w.nnz() as u64);
        self.span_end(t0, || SpanFields {
            op: "ewise_mult_vec",
            op_label: gbtl_trace::short_type_name::<Op>(),
            dims: format!("{len}"),
            nnz_in,
            nnz_out,
            masked,
            complemented: masked && desc.complement_mask,
            accum: has_accum,
        });
        Ok(())
    }

    fn check_vec_dims<T: Scalar>(
        &self,
        which: &'static str,
        w: &Vector<T>,
        mask: Option<&Vector<bool>>,
        u: &Vector<T>,
        v: &Vector<T>,
    ) -> Result<()> {
        if u.len() != v.len() || w.len() != u.len() {
            return Err(dim_err(
                "ewise",
                format!("{which}: w={} u={} v={}", w.len(), u.len(), v.len()),
            ));
        }
        if let Some(mk) = mask {
            if mk.len() != w.len() {
                return Err(dim_err("ewise", format!("{which}: mask len {}", mk.len())));
            }
        }
        Ok(())
    }
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
