//! `transpose`, `extract`, and `assign`.

use std::sync::Arc;

use gbtl_algebra::{BinaryOp, Scalar};
use gbtl_sparse::{CsrMatrix, Index};

use crate::backend::Backend;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::stitch::{check_indices, ensure, mat_out};
use crate::types::{Matrix, Vector};
use crate::Context;

impl<B: Backend> Context<B> {
    /// `C<M, accum> = Aᵀ`.
    pub fn transpose<T, Acc>(
        &self,
        c: &mut Matrix<T>,
        mask: Option<&Matrix<bool>>,
        accum: Option<Acc>,
        a: &Matrix<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        Acc: BinaryOp<T>,
    {
        // transpose_a on a transpose op yields A back (GraphBLAS quirk) —
        // share the caller's buffer instead of copying it. The real
        // transpose is served shared out of the context's transpose cache;
        // either way a pure overwrite adopts the shared buffer, zero copies.
        let span = self.op_span("transpose", String::new);
        let t: Arc<CsrMatrix<T>> = if desc.transpose_a {
            a.shared_csr()
        } else {
            self.resolve_transposed_shared(a)
        };
        let (nr, nc) = (t.nrows(), t.ncols());
        ensure("transpose", (c.nrows(), c.ncols()) == (nr, nc), || {
            format!("output {}x{} vs result {nr}x{nc}", c.nrows(), c.ncols())
        })?;
        let out = mat_out("transpose", mask, accum, desc, (nr, nc))?;
        self.write_mat(c, t, out, span, a.nnz(), || format!("{nr}x{nc}"));
        Ok(())
    }

    /// `C = A(rows, cols)` — sub-matrix extraction into a fresh matrix of
    /// shape `rows.len() x cols.len()`.
    pub fn extract_mat<T>(&self, a: &Matrix<T>, rows: &[Index], cols: &[Index]) -> Result<Matrix<T>>
    where
        T: Scalar,
    {
        let span = self.op_span("extract_mat", String::new);
        check_indices("extract", rows, a.nrows())?;
        check_indices("extract", cols, a.ncols())?;
        let out = Matrix::from_csr(self.backend().extract_mat(a.csr(), rows, cols));
        let (nr, nc) = (out.nrows(), out.ncols());
        self.record(span, a.nnz(), out.nnz(), None, false, || {
            format!("{nr}x{nc}")
        });
        Ok(out)
    }

    /// `C(rows, cols) = A` — sub-matrix assignment (entries of the region
    /// not stored in `A` are cleared).
    pub fn assign_mat<T>(
        &self,
        c: &mut Matrix<T>,
        a: &Matrix<T>,
        rows: &[Index],
        cols: &[Index],
    ) -> Result<()>
    where
        T: Scalar,
    {
        let span = self.op_span("assign_mat", String::new);
        let (ar, ac, rr, rc) = (a.nrows(), a.ncols(), rows.len(), cols.len());
        ensure("assign", (ar, ac) == (rr, rc), || {
            format!("value is {ar}x{ac}, region is {rr}x{rc}")
        })?;
        check_indices("assign", rows, c.nrows())?;
        check_indices("assign", cols, c.ncols())?;
        let nnz_in = c.nnz() + a.nnz();
        *c = Matrix::from_csr(self.backend().assign_mat(c.csr(), a.csr(), rows, cols));
        let (nr, nc) = (c.nrows(), c.ncols());
        self.record(span, nnz_in, c.nnz(), None, false, || format!("{nr}x{nc}"));
        Ok(())
    }

    /// `w = u(indices)` — sub-vector extraction.
    pub fn extract_vec<T>(&self, u: &Vector<T>, indices: &[Index]) -> Result<Vector<T>>
    where
        T: Scalar,
    {
        let span = self.op_span("extract_vec", String::new);
        check_indices("extract", indices, u.len())?;
        let out = Vector::from(self.backend().extract_vec(&u.dense_view(), indices));
        let len = out.len();
        self.record(span, u.nnz(), out.nnz(), None, false, || format!("{len}"));
        Ok(out)
    }

    /// `w(indices) = u` — sub-vector assignment.
    pub fn assign_vec<T>(&self, w: &mut Vector<T>, u: &Vector<T>, indices: &[Index]) -> Result<()>
    where
        T: Scalar,
    {
        let span = self.op_span("assign_vec", String::new);
        ensure("assign", u.len() == indices.len(), || {
            format!("value len {}, region len {}", u.len(), indices.len())
        })?;
        check_indices("assign", indices, w.len())?;
        let nnz_in = w.nnz() + u.nnz();
        let t = self
            .backend()
            .assign_vec(&w.dense_view(), &u.dense_view(), indices);
        *w = Vector::from(t);
        let len = w.len();
        self.record(span, nnz_in, w.nnz(), None, false, || format!("{len}"));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{no_accum, GblasError};
    use gbtl_algebra::Second;

    fn m(entries: &[(usize, usize, i64)], r: usize, c: usize) -> Matrix<i64> {
        Matrix::build(r, c, entries.iter().copied(), Second::new()).unwrap()
    }

    #[test]
    fn transpose_both_backends() {
        let a = m(&[(0, 2, 1), (1, 0, 2)], 2, 3);
        let mut c1 = Matrix::new(3, 2);
        let mut c2 = Matrix::new(3, 2);
        Context::sequential()
            .transpose(&mut c1, None, no_accum(), &a, &Descriptor::new())
            .unwrap();
        Context::cuda_default()
            .transpose(&mut c2, None, no_accum(), &a, &Descriptor::new())
            .unwrap();
        assert_eq!(c1, c2);
        assert_eq!(c1.get(2, 0), Some(1));
        assert_eq!(c1.get(0, 1), Some(2));
    }

    #[test]
    fn transpose_of_transpose_flag_is_identity() {
        let ctx = Context::sequential();
        let a = m(&[(0, 1, 9)], 2, 2);
        let mut c = Matrix::new(2, 2);
        ctx.transpose(
            &mut c,
            None,
            no_accum(),
            &a,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn extract_and_assign_round_trip() {
        let ctx = Context::sequential();
        let a = m(&[(0, 0, 1), (1, 1, 2), (2, 2, 3)], 3, 3);
        let sub = ctx.extract_mat(&a, &[1, 2], &[1, 2]).unwrap();
        assert_eq!(sub.get(0, 0), Some(2));
        assert_eq!(sub.get(1, 1), Some(3));

        let mut c = Matrix::new(3, 3);
        ctx.assign_mat(&mut c, &sub, &[0, 1], &[0, 1]).unwrap();
        assert_eq!(c.get(0, 0), Some(2));
        assert_eq!(c.get(1, 1), Some(3));
    }

    #[test]
    fn extract_bounds_checked() {
        let ctx = Context::sequential();
        let a = m(&[], 2, 2);
        assert!(matches!(
            ctx.extract_mat(&a, &[5], &[0]),
            Err(GblasError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn vector_extract_assign() {
        let ctx = Context::sequential();
        let mut u = Vector::new(4);
        u.set(1, 10i64);
        u.set(3, 30);
        let sub = ctx.extract_vec(&u, &[3, 1]).unwrap();
        assert_eq!(sub.get(0), Some(30));
        assert_eq!(sub.get(1), Some(10));

        let mut w = Vector::<i64>::new(4);
        ctx.assign_vec(&mut w, &sub, &[0, 2]).unwrap();
        assert_eq!(w.get(0), Some(30));
        assert_eq!(w.get(2), Some(10));
        assert!(ctx.assign_vec(&mut w, &sub, &[0]).is_err());
    }
}
