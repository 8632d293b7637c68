//! `apply` and the `reduce` family.

use gbtl_algebra::{BinaryOp, Monoid, Scalar, UnaryOp};
use gbtl_trace::SpanFields;

use crate::backend::Backend;
use crate::descriptor::Descriptor;
use crate::error::{dim_err, Result};
use crate::stitch::{resolve_vec_mask, stitch_mat, stitch_sparse_vec, MatMask};
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
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        if (c.nrows(), c.ncols()) != (a_csr.nrows(), a_csr.ncols()) {
            return Err(dim_err(
                "apply",
                format!(
                    "output {}x{} vs input {}x{}",
                    c.nrows(),
                    c.ncols(),
                    a_csr.nrows(),
                    a_csr.ncols()
                ),
            ));
        }
        let t0 = self.span();
        let nnz_in = a_csr.nnz() as u64;
        let (masked, has_accum) = (mask.is_some(), accum.is_some());
        let t = self.backend().apply_mat(&a_csr, f);
        let mat_mask = mask.map(|mk| MatMask::new(mk, desc.complement_mask));
        *c = Matrix::from_csr(stitch_mat(c.csr(), t, mat_mask, accum, desc.replace));
        let (nr, nc, nnz_out) = (c.nrows(), c.ncols(), c.nnz() as u64);
        self.span_end(t0, || SpanFields {
            op: "apply_mat",
            op_label: gbtl_trace::short_type_name::<U>(),
            dims: format!("{nr}x{nc}"),
            nnz_in,
            nnz_out,
            masked,
            complemented: masked && desc.complement_mask,
            accum: has_accum,
        });
        Ok(())
    }

    /// `C = f(A)` into a fresh (possibly differently-typed) matrix.
    pub fn apply_mat_new<A, U>(&self, f: U, a: &Matrix<A>) -> Matrix<U::Output>
    where
        A: Scalar,
        U: UnaryOp<A>,
    {
        let t0 = self.span();
        let out = Matrix::from_csr(self.backend().apply_mat(a.csr(), f));
        let (nr, nc, nnz) = (out.nrows(), out.ncols(), out.nnz() as u64);
        self.span_end(t0, || SpanFields {
            op: "apply_mat",
            op_label: gbtl_trace::short_type_name::<U>(),
            dims: format!("{nr}x{nc}"),
            nnz_in: nnz,
            nnz_out: nnz,
            masked: false,
            complemented: false,
            accum: false,
        });
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
        if w.len() != u.len() {
            return Err(dim_err(
                "apply",
                format!("output len {} vs input len {}", w.len(), u.len()),
            ));
        }
        let t0 = self.span();
        let nnz_in = u.nnz() as u64;
        let (masked, has_accum) = (mask.is_some(), accum.is_some());
        let t = self.backend().apply_sparse_vec(&u.to_sparse_repr(), f);
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
            op: "apply_vec",
            op_label: gbtl_trace::short_type_name::<U>(),
            dims: format!("{len}"),
            nnz_in,
            nnz_out,
            masked,
            complemented: masked && desc.complement_mask,
            accum: has_accum,
        });
        Ok(())
    }

    /// `w = f(u)` into a fresh (possibly differently-typed) vector.
    pub fn apply_vec_new<A, U>(&self, f: U, u: &Vector<A>) -> Vector<U::Output>
    where
        A: Scalar,
        U: UnaryOp<A>,
    {
        let t0 = self.span();
        let out = match u.repr() {
            VectorRepr::Sparse(s) => Vector::from(self.backend().apply_sparse_vec(s, f)),
            VectorRepr::Dense(d) => Vector::from(self.backend().apply_dense_vec(d, f)),
        };
        let (len, nnz_in, nnz_out) = (out.len(), u.nnz() as u64, out.nnz() as u64);
        self.span_end(t0, || SpanFields {
            op: "apply_vec",
            op_label: gbtl_trace::short_type_name::<U>(),
            dims: format!("{len}"),
            nnz_in,
            nnz_out,
            masked: false,
            complemented: false,
            accum: false,
        });
        out
    }

    /// Reduce all stored entries of `A` to a scalar; `None` when `A` stores
    /// nothing.
    pub fn reduce_mat_scalar<T, M>(&self, monoid: M, a: &Matrix<T>) -> Option<T>
    where
        T: Scalar,
        M: Monoid<T>,
    {
        let t0 = self.span();
        let out = self.backend().reduce_mat(a.csr(), monoid);
        let (nr, nc, nnz_in) = (a.nrows(), a.ncols(), a.nnz() as u64);
        let nnz_out = out.is_some() as u64;
        self.span_end(t0, || SpanFields {
            op: "reduce_mat",
            op_label: gbtl_trace::short_type_name::<M>(),
            dims: format!("{nr}x{nc}"),
            nnz_in,
            nnz_out,
            masked: false,
            complemented: false,
            accum: false,
        });
        out
    }

    /// Reduce all stored entries of `u` to a scalar; `None` when empty.
    pub fn reduce_vec_scalar<T, M>(&self, monoid: M, u: &Vector<T>) -> Option<T>
    where
        T: Scalar,
        M: Monoid<T>,
    {
        let t0 = self.span();
        let out = match u.repr() {
            VectorRepr::Sparse(s) => self.backend().reduce_sparse_vec(s, monoid),
            VectorRepr::Dense(d) => self.backend().reduce_dense_vec(d, monoid),
        };
        let (len, nnz_in) = (u.len(), u.nnz() as u64);
        let nnz_out = out.is_some() as u64;
        self.span_end(t0, || SpanFields {
            op: "reduce_vec",
            op_label: gbtl_trace::short_type_name::<M>(),
            dims: format!("{len}"),
            nnz_in,
            nnz_out,
            masked: false,
            complemented: false,
            accum: false,
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
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        if w.len() != a_csr.nrows() {
            return Err(dim_err(
                "reduce_rows",
                format!("output len {} vs nrows {}", w.len(), a_csr.nrows()),
            ));
        }
        let t0 = self.span();
        let nnz_in = a_csr.nnz() as u64;
        let (masked, has_accum) = (mask.is_some(), accum.is_some());
        let t = self.backend().reduce_rows(&a_csr, monoid);
        let keep = resolve_vec_mask(mask, desc.complement_mask, w.len());
        *w = Vector::from(stitch_sparse_vec(
            w,
            t,
            keep.as_ref().map(|k| k.view()),
            accum,
            desc.replace,
        ));
        let (nr, nc) = (a_csr.nrows(), a_csr.ncols());
        let nnz_out = w.nnz() as u64;
        self.span_end(t0, || SpanFields {
            op: "reduce_rows",
            op_label: gbtl_trace::short_type_name::<M>(),
            dims: format!("{nr}x{nc}"),
            nnz_in,
            nnz_out,
            masked,
            complemented: masked && desc.complement_mask,
            accum: has_accum,
        });
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
