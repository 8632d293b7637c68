//! `apply` and the `reduce` family.

use gbtl_algebra::{BinaryOp, Monoid, Scalar, UnaryOp};
use gbtl_trace::short_type_name;

use crate::backend::Backend;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::stitch::{ensure, mat_out, vec_out};
use crate::types::{Matrix, Vector, VectorRepr};
use crate::Context;

impl<B: Backend> Context<B> {
    /// `C<M, accum> = f(A)` — same-domain apply with full output semantics.
    pub fn apply_mat<T, U, Acc>(
        &self,
        c: &mut Matrix<T>,
        mask: Option<&Matrix<bool>>,
        accum: Option<Acc>,
        f: U,
        a: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        U: UnaryOp<T, Output = T>,
        Acc: BinaryOp<T>,
    {
        let span = self.op_span("apply_mat", short_type_name::<U>);
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        let (nr, nc) = (a_csr.nrows(), a_csr.ncols());
        ensure("apply", (c.nrows(), c.ncols()) == (nr, nc), || {
            format!("output {}x{} vs input {nr}x{nc}", c.nrows(), c.ncols())
        })?;
        let out = mat_out("apply", mask, accum, desc, (nr, nc))?;
        let t = self.backend().apply_mat(&a_csr, f);
        self.write_mat(c, t, out, span, a_csr.nnz(), || format!("{nr}x{nc}"));
        Ok(())
    }

    /// `C = f(A)` into a fresh (possibly differently-typed) matrix.
    pub fn apply_mat_new<A, U>(&self, f: U, a: &Matrix<A>) -> Matrix<U::Output>
    where
        A: Scalar,
        U: UnaryOp<A>,
    {
        let span = self.op_span("apply_mat", short_type_name::<U>);
        let out = Matrix::from_csr(self.backend().apply_mat(a.csr(), f));
        let (nr, nc, nnz) = (out.nrows(), out.ncols(), out.nnz());
        self.record(span, nnz, nnz, None, false, || format!("{nr}x{nc}"));
        out
    }

    /// `w<m, accum> = f(u)` — same-domain vector apply.
    pub fn apply_vec<T, U, Acc>(
        &self,
        w: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        accum: Option<Acc>,
        f: U,
        u: &Vector<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        U: UnaryOp<T, Output = T>,
        Acc: BinaryOp<T>,
    {
        let span = self.op_span("apply_vec", short_type_name::<U>);
        let len = u.len();
        ensure("apply", w.len() == len, || {
            format!("output len {} vs input len {len}", w.len())
        })?;
        let out = vec_out("apply", mask, accum, desc, len)?;
        let t = self.backend().apply_sparse_vec(&u.sparse_view(), f);
        self.write_vec(w, t, out, span, u.nnz(), || format!("{len}"));
        Ok(())
    }

    /// `w = f(u)` into a fresh (possibly differently-typed) vector.
    pub fn apply_vec_new<A, U>(&self, f: U, u: &Vector<A>) -> Vector<U::Output>
    where
        A: Scalar,
        U: UnaryOp<A>,
    {
        let span = self.op_span("apply_vec", short_type_name::<U>);
        let out = match u.repr() {
            VectorRepr::Sparse(s) => Vector::from(self.backend().apply_sparse_vec(s, f)),
            VectorRepr::Dense(d) => Vector::from(self.backend().apply_dense_vec(d, f)),
        };
        let len = out.len();
        self.record(span, u.nnz(), out.nnz(), None, false, || format!("{len}"));
        out
    }

    /// Reduce all stored entries of `A` to a scalar; `None` when `A` stores
    /// nothing.
    pub fn reduce_mat_scalar<T, M>(&self, monoid: M, a: &Matrix<T>) -> Option<T>
    where
        T: Scalar,
        M: Monoid<T>,
    {
        let span = self.op_span("reduce_mat", short_type_name::<M>);
        let out = self.backend().reduce_mat(a.csr(), monoid);
        let (nr, nc) = (a.nrows(), a.ncols());
        self.record(span, a.nnz(), out.is_some() as usize, None, false, || {
            format!("{nr}x{nc}")
        });
        out
    }

    /// Reduce all stored entries of `u` to a scalar; `None` when empty.
    pub fn reduce_vec_scalar<T, M>(&self, monoid: M, u: &Vector<T>) -> Option<T>
    where
        T: Scalar,
        M: Monoid<T>,
    {
        let span = self.op_span("reduce_vec", short_type_name::<M>);
        let out = match u.repr() {
            VectorRepr::Sparse(s) => self.backend().reduce_sparse_vec(s, monoid),
            VectorRepr::Dense(d) => self.backend().reduce_dense_vec(d, monoid),
        };
        let len = u.len();
        self.record(span, u.nnz(), out.is_some() as usize, None, false, || {
            format!("{len}")
        });
        out
    }

    /// `w<m, accum> = ⊕ A(i, :)` — row-wise reduction (column-wise with
    /// `desc.transpose_a`).
    pub fn reduce_rows<T, M, Acc>(
        &self,
        w: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        accum: Option<Acc>,
        monoid: M,
        a: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        M: Monoid<T>,
        Acc: BinaryOp<T>,
    {
        let span = self.op_span("reduce_rows", short_type_name::<M>);
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        let (nr, nc) = (a_csr.nrows(), a_csr.ncols());
        ensure("reduce_rows", w.len() == nr, || {
            format!("output len {} vs nrows {nr}", w.len())
        })?;
        let out = vec_out("reduce_rows", mask, accum, desc, nr)?;
        let t = self.backend().reduce_rows(&a_csr, monoid);
        self.write_vec(w, t, out, span, a_csr.nnz(), || format!("{nr}x{nc}"));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::no_accum;
    use gbtl_algebra::{AdditiveInverse, Identity, MinMonoid, Plus, PlusMonoid, Second, UnaryOp};

    fn m(entries: &[(usize, usize, i64)], r: usize, c: usize) -> Matrix<i64> {
        Matrix::build(r, c, entries.iter().copied(), Second::new()).unwrap()
    }

    #[test]
    fn apply_negates() {
        let ctx = Context::sequential();
        let a = m(&[(0, 0, 5), (1, 1, -2)], 2, 2);
        let mut c = Matrix::new(2, 2);
        ctx.apply_mat(
            &mut c,
            None,
            no_accum(),
            AdditiveInverse::new(),
            &a,
            &Descriptor::new(),
        )
        .unwrap();
        assert_eq!(c.get(0, 0), Some(-5));
        assert_eq!(c.get(1, 1), Some(2));
    }

    #[test]
    fn apply_new_changes_type() {
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        struct ToBool;
        impl gbtl_algebra::UnaryOp<i64> for ToBool {
            type Output = bool;
            fn apply(&self, a: i64) -> bool {
                a != 0
            }
        }
        let ctx = Context::cuda_default();
        let a = m(&[(0, 1, 7)], 2, 2);
        let b = ctx.apply_mat_new(ToBool, &a);
        assert_eq!(b.get(0, 1), Some(true));
    }

    #[test]
    fn reduce_matrix_and_vector() {
        let ctx = Context::sequential();
        let a = m(&[(0, 0, 5), (0, 2, 7), (2, 1, -2)], 3, 3);
        assert_eq!(ctx.reduce_mat_scalar(PlusMonoid::new(), &a), Some(10));
        assert_eq!(
            ctx.reduce_mat_scalar(PlusMonoid::<i64>::new(), &Matrix::new(2, 2)),
            None
        );
        let mut v = Vector::new(4);
        v.set(2, 9i64);
        v.set(3, 1);
        assert_eq!(ctx.reduce_vec_scalar(MinMonoid::new(), &v), Some(1));
    }

    #[test]
    fn reduce_rows_matches_both_backends() {
        let a = m(&[(0, 0, 5), (0, 2, 7), (2, 1, -2)], 3, 3);
        let mut w1 = Vector::new(3);
        let mut w2 = Vector::new(3);
        Context::sequential()
            .reduce_rows(
                &mut w1,
                None,
                no_accum(),
                PlusMonoid::new(),
                &a,
                &Descriptor::new(),
            )
            .unwrap();
        Context::cuda_default()
            .reduce_rows(
                &mut w2,
                None,
                no_accum(),
                PlusMonoid::new(),
                &a,
                &Descriptor::new(),
            )
            .unwrap();
        assert_eq!(w1, w2);
        assert_eq!(w1.get(0), Some(12));
        assert_eq!(w1.get(1), None);
    }

    #[test]
    fn reduce_cols_via_transpose() {
        let ctx = Context::sequential();
        let a = m(&[(0, 0, 1), (1, 0, 2), (2, 0, 4)], 3, 3);
        let mut w = Vector::new(3);
        ctx.reduce_rows(
            &mut w,
            None,
            no_accum(),
            PlusMonoid::new(),
            &a,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        assert_eq!(w.get(0), Some(7));
    }

    #[test]
    fn apply_vec_with_accum() {
        let ctx = Context::sequential();
        let mut u = Vector::new(3);
        u.set(0, 4i64);
        let mut w = Vector::new(3);
        w.set(0, 100i64);
        ctx.apply_vec(
            &mut w,
            None,
            Some(Plus::<i64>::new()),
            Identity::new(),
            &u,
            &Descriptor::new(),
        )
        .unwrap();
        assert_eq!(w.get(0), Some(104));
        let _ = Identity::<i64>::new().apply(0);
    }
}
