//! `select` (entry filtering) and `kronecker` (graph products).

// GraphBLAS operation signatures (output, mask, accumulator, operator,
// inputs, descriptor) are fixed by the spec.
#![allow(clippy::too_many_arguments)]

use gbtl_algebra::{BinaryOp, Scalar, SelectOp};
use gbtl_trace::short_type_name;

use crate::backend::Backend;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::stitch::{ensure, mat_out, vec_out};
use crate::types::{Matrix, Vector};
use crate::Context;

impl<B: Backend> Context<B> {
    /// `C<M, accum> = select(op, A)` — keep entries passing the predicate.
    pub fn select_mat<T, P, Acc>(
        &self,
        c: &mut Matrix<T>,
        mask: Option<&Matrix<bool>>,
        accum: Option<Acc>,
        op: P,
        a: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        P: SelectOp<T>,
        Acc: BinaryOp<T>,
    {
        let span = self.op_span("select_mat", short_type_name::<P>);
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        let (nr, nc) = (a_csr.nrows(), a_csr.ncols());
        ensure("select", (c.nrows(), c.ncols()) == (nr, nc), || {
            format!("output {}x{} vs input {nr}x{nc}", c.nrows(), c.ncols())
        })?;
        let out = mat_out("select", mask, accum, desc, (nr, nc))?;
        let t = self.backend().select_mat(&a_csr, op);
        self.write_mat(c, t, out, span, a_csr.nnz(), || format!("{nr}x{nc}"));
        Ok(())
    }

    /// `select` into a fresh matrix (the common no-mask form).
    pub fn select_mat_new<T, P>(&self, op: P, a: &Matrix<T>) -> Matrix<T>
    where
        T: Scalar,
        P: SelectOp<T>,
    {
        let span = self.op_span("select_mat", short_type_name::<P>);
        let out = Matrix::from_csr(self.backend().select_mat(a.csr(), op));
        let (nr, nc) = (out.nrows(), out.ncols());
        self.record(span, a.nnz(), out.nnz(), None, false, || {
            format!("{nr}x{nc}")
        });
        out
    }

    /// `w<m, accum> = select(op, u)`.
    pub fn select_vec<T, P, Acc>(
        &self,
        w: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        accum: Option<Acc>,
        op: P,
        u: &Vector<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        P: SelectOp<T>,
        Acc: BinaryOp<T>,
    {
        let span = self.op_span("select_vec", short_type_name::<P>);
        let len = u.len();
        ensure("select", w.len() == len, || {
            format!("output len {} vs input len {len}", w.len())
        })?;
        let out = vec_out("select", mask, accum, desc, len)?;
        let t = self.backend().select_vec(&u.sparse_view(), op);
        self.write_vec(w, t, out, span, u.nnz(), || format!("{len}"));
        Ok(())
    }

    /// `C<M, accum> = A ⊗kron B` — Kronecker product with elementwise
    /// combine `mul`. Output shape is `(a.nrows·b.nrows) ×
    /// (a.ncols·b.ncols)`.
    pub fn kronecker<T, Op, Acc>(
        &self,
        c: &mut Matrix<T>,
        mask: Option<&Matrix<bool>>,
        accum: Option<Acc>,
        mul: Op,
        a: &Matrix<T>,
        b: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Op: BinaryOp<T>,
        Acc: BinaryOp<T>,
    {
        let span = self.op_span("kronecker", short_type_name::<Op>);
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        let b_csr = self.resolve_operand(b, desc.transpose_b);
        let (m, n) = (a_csr.nrows() * b_csr.nrows(), a_csr.ncols() * b_csr.ncols());
        ensure("kronecker", (c.nrows(), c.ncols()) == (m, n), || {
            format!("output {}x{} vs product {m}x{n}", c.nrows(), c.ncols())
        })?;
        let out = mat_out("kronecker", mask, accum, desc, (m, n))?;
        let t = self.backend().kronecker(&a_csr, &b_csr, mul);
        self.write_mat(c, t, out, span, a_csr.nnz() + b_csr.nnz(), || {
            format!("{m}x{n}")
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::no_accum;
    use gbtl_algebra::{Second, Times, TriL, ValueGt};

    fn m(entries: &[(usize, usize, i64)], r: usize, c: usize) -> Matrix<i64> {
        Matrix::build(r, c, entries.iter().copied(), Second::new()).unwrap()
    }

    #[test]
    fn select_tril_both_backends() {
        let a = m(&[(0, 1, 1), (1, 0, 2), (2, 1, 3), (1, 2, 4)], 3, 3);
        let mut c1 = Matrix::new(3, 3);
        let mut c2 = Matrix::new(3, 3);
        Context::sequential()
            .select_mat(&mut c1, None, no_accum(), TriL, &a, &Descriptor::new())
            .unwrap();
        Context::cuda_default()
            .select_mat(&mut c2, None, no_accum(), TriL, &a, &Descriptor::new())
            .unwrap();
        assert_eq!(c1, c2);
        assert_eq!(c1.nnz(), 2);
        assert_eq!(c1.get(1, 0), Some(2));
        assert_eq!(c1.get(2, 1), Some(3));
    }

    #[test]
    fn select_by_value_vector() {
        let ctx = Context::sequential();
        let mut u = Vector::new(4);
        u.set(0, -1i64);
        u.set(2, 5);
        let mut w = Vector::new(4);
        ctx.select_vec(
            &mut w,
            None,
            no_accum(),
            ValueGt(0i64),
            &u,
            &Descriptor::new(),
        )
        .unwrap();
        assert_eq!(w.nnz(), 1);
        assert_eq!(w.get(2), Some(5));
    }

    #[test]
    fn kronecker_both_backends() {
        let a = m(&[(0, 0, 2), (1, 1, 3)], 2, 2);
        let b = m(&[(0, 1, 5), (1, 0, 7)], 2, 2);
        let mut c1 = Matrix::new(4, 4);
        let mut c2 = Matrix::new(4, 4);
        Context::sequential()
            .kronecker(
                &mut c1,
                None,
                no_accum(),
                Times::new(),
                &a,
                &b,
                &Descriptor::new(),
            )
            .unwrap();
        Context::cuda_default()
            .kronecker(
                &mut c2,
                None,
                no_accum(),
                Times::new(),
                &a,
                &b,
                &Descriptor::new(),
            )
            .unwrap();
        assert_eq!(c1, c2);
        assert_eq!(c1.get(0, 1), Some(10));
        assert_eq!(c1.get(1, 0), Some(14));
        assert_eq!(c1.get(2, 3), Some(15));
        assert_eq!(c1.get(3, 2), Some(21));
    }

    #[test]
    fn kronecker_shape_checked() {
        let ctx = Context::sequential();
        let a = m(&[], 2, 2);
        let mut c = Matrix::new(3, 3);
        assert!(ctx
            .kronecker(
                &mut c,
                None,
                no_accum(),
                Times::new(),
                &a,
                &a,
                &Descriptor::new()
            )
            .is_err());
    }

    #[test]
    fn select_new_is_shorthand() {
        let ctx = Context::cuda_default();
        let a = m(&[(0, 1, 1), (1, 0, 2)], 2, 2);
        let l = ctx.select_mat_new(TriL, &a);
        assert_eq!(l.nnz(), 1);
        assert_eq!(l.get(1, 0), Some(2));
    }
}
