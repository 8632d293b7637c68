//! `mxm`: matrix–matrix multiply over a semiring.

// GraphBLAS operation signatures (output, mask, accumulator, operator,
// inputs, descriptor) are fixed by the spec.
#![allow(clippy::too_many_arguments)]

use std::sync::Arc;

use gbtl_algebra::{BinaryOp, Scalar, Semiring};
use gbtl_backend_cuda::charge;
use gbtl_sparse::CsrMatrix;
use gbtl_trace::short_type_name;

use crate::backend::Backend;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::policy::DevicePrice;
use crate::resolve::OperandRef;
use crate::stitch::{ensure, mat_out, unvisited_row};
use crate::types::Matrix;
use crate::Context;

impl<B: Backend> Context<B> {
    /// `C<M, accum> = A ⊕.⊗ B` (with optional transposes via `desc`).
    ///
    /// A structural, non-complemented mask is pushed down to the backend's
    /// masked-multiply kernel so masked-out entries are never computed (the
    /// triangle-counting path); complemented masks compute fully and filter
    /// during the stitch.
    ///
    /// The operands are read in the domains they are stored in (`D1`, `D2`);
    /// the semiring maps them into the output's. `PlusPair<u64>` over two
    /// boolean matrices counts structural intersections with no typed copy
    /// of either.
    pub fn mxm<T, D1, D2, S, Acc>(
        &self,
        c: &mut Matrix<T>,
        mask: Option<&Matrix<bool>>,
        accum: Option<Acc>,
        sr: S,
        a: &Matrix<D1>,
        b: &Matrix<D2>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        D1: Scalar,
        D2: Scalar,
        S: Semiring<T, D1, D2>,
        Acc: BinaryOp<T>,
    {
        let span = self.op_span("mxm", short_type_name::<S>);
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        let b_csr = self.resolve_operand(b, desc.transpose_b);
        let (m, k1) = (a_csr.nrows(), a_csr.ncols());
        let (k2, n) = (b_csr.nrows(), b_csr.ncols());
        ensure("mxm", k1 == k2, || format!("{m}x{k1} * {k2}x{n}"))?;
        ensure("mxm", (c.nrows(), c.ncols()) == (m, n), || {
            format!("output is {}x{}, product is {m}x{n}", c.nrows(), c.ncols())
        })?;
        let mut out = mat_out("mxm", mask, accum, desc, (m, n))?;
        let t = match out.push_down() {
            Some(mk) => self.backend().mxm_masked(mk, &a_csr, &b_csr, sr),
            None => self.backend().mxm(&a_csr, &b_csr, sr),
        };
        self.write_mat(c, t, out, span, a_csr.nnz() + b_csr.nnz(), || {
            format!("{m}x{k1}*{k2}x{n}")
        });
        Ok(())
    }

    /// One level of a fused k-source traversal over `a`, `Aᵀ` resident:
    /// `run` computes the unmasked push `N = F ⊕.⊗ A` over the k×n
    /// frontier `F`, and the backend charges the direction its device
    /// prices cheaper ([`Backend::level`], docs/adr/0015). Pull is priced
    /// here from `N` as one k-stacked pull ([`charge::mxv_stacked`]): the
    /// members whose frontier row holds an entry, each pulling `Aᵀ` over
    /// its own row of `F`, under its row of the k×n `visited` bitmap when
    /// the level is masked (packed 64 vertices a word, ⌈n/64⌉ words a
    /// member; one [`charge::mask_resolve`] over k·n first). A row stops
    /// early where `pull`'s add monoid reached its terminal value, and is
    /// walked to there only where that can move the charge
    /// ([`charge::exit_rows`], [`gbtl_backend_seq::early_exits_stacked`]).
    /// Returns `N` and the device's choice (`None` on a backend without a
    /// device).
    pub fn priced_fused_level<D, SL>(
        &self,
        pull: SL,
        a: &Matrix<D>,
        frontier: &Matrix<D>,
        visited: Option<&[u64]>,
        run: impl FnOnce() -> Result<CsrMatrix<D>>,
    ) -> Result<(CsrMatrix<D>, Option<DevicePrice>)>
    where
        D: Scalar,
        SL: Semiring<D, D, D>,
    {
        let (out, device) = self.backend().level(run, |next, device| {
            let (Ok(next), Some(at)) =
                (next, self.transpose_cache().peek::<D>(a.id(), a.version()))
            else {
                return false;
            };
            let (f, k, n) = (frontier.csr(), frontier.nrows(), at.nrows());
            if visited.is_some() {
                charge::mask_resolve(device, k * n);
            }
            let words = n.div_ceil(64);
            let keep = |r| visited.map(|v| unvisited_row(&v[r * words..(r + 1) * words], n));
            let exits = charge::exit_rows::<D, D>(device, &at);
            let early = gbtl_backend_seq::early_exits_stacked(pull, &at, f, next, |r, stops| {
                let mask = keep(r);
                for (b, (stop, exits)) in stops.iter_mut().zip(exits.iter()).enumerate() {
                    *stop &= exits & mask.map_or(u64::MAX, |m| m.keep_word(b));
                }
            });
            let members = (0..k).filter(|&r| f.row_nnz(r) > 0);
            let stacked = members.map(|r| (keep(r), early[r].as_slice()));
            charge::mxv_stacked::<D, D>(device, &at, stacked);
            true
        });
        Ok((out?, device))
    }

    /// A masked product `C<M> = A ⊕.⊗ B` the host computes (`run`), for a
    /// caller that reads only the sum of `C` and vouches that the sum of
    /// `C'<M> = A ⊕.⊗ Bᵀ` is the same — `triangle_count`'s `L·L` and
    /// `L·Lᵀ` (docs/adr/0016): the backend charges the formulation its
    /// device prices cheaper ([`Backend::level`]). What `run`'s ops charge
    /// prices the host's; the other is priced here from the operands alone
    /// as [`charge::mxm_dot`] over `B`'s own rows, which are `Bᵀ`'s columns,
    /// so it charges no transpose. Returns the device's choice, `Push` the
    /// host's formulation and `Pull` the other (`None` on a backend without
    /// a device).
    pub fn priced_masked_mxm<T, D1, D2>(
        &self,
        mask: &Matrix<bool>,
        a: &Matrix<D1>,
        b: &Matrix<D2>,
        run: impl FnOnce() -> Result<()>,
    ) -> Result<Option<DevicePrice>>
    where
        T: Scalar,
        D1: Scalar,
        D2: Scalar,
    {
        let (out, device) = self.backend().level(run, |out, device| {
            let shapes = (mask.nrows(), mask.ncols()) == (a.nrows(), b.nrows());
            if out.is_err() || !shapes || a.ncols() != b.ncols() {
                return false;
            }
            let b = b.csr();
            charge::mxm_dot::<T, D1, D2>(device, mask.csr(), a.csr(), |j| b.row_nnz(j));
            true
        });
        out.map(|()| device)
    }

    /// Resolve a matrix operand for dispatch without copying it.
    ///
    /// Untransposed: borrow straight from the caller's matrix — the hot
    /// path allocates and copies nothing. Transposed: share `Aᵀ` out of
    /// the context's [`crate::TransposeCache`], building it at most once
    /// per `(matrix, version)` — every later pull iteration is a cache hit
    /// — and not at all when `A` is its own transpose bit for bit
    /// ([`Context::cached_transpose`]).
    pub(crate) fn resolve_operand<'a, T: Scalar>(
        &self,
        a: &'a Matrix<T>,
        transpose: bool,
    ) -> OperandRef<'a, T> {
        if transpose {
            OperandRef::Shared(self.cached_transpose(a, false))
        } else {
            OperandRef::Borrowed(a.csr())
        }
    }

    /// `Aᵀ` as a shared buffer, served from the transpose cache when
    /// resident and built on a miss: the `Context::transpose` result path.
    pub(crate) fn resolve_transposed_shared<T: Scalar>(&self, a: &Matrix<T>) -> Arc<CsrMatrix<T>> {
        self.transpose_cache()
            .get_or_build(a.id(), a.version(), || self.backend().transpose(a.csr()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::no_accum;
    use gbtl_algebra::{Plus, PlusTimes, Second};

    fn mat(entries: &[(usize, usize, i64)], m: usize, n: usize) -> Matrix<i64> {
        Matrix::build(m, n, entries.iter().copied(), Second::new()).unwrap()
    }

    #[test]
    fn basic_mxm() {
        let ctx = Context::sequential();
        let a = mat(&[(0, 0, 1), (0, 1, 2), (1, 2, 3)], 2, 3);
        let b = mat(&[(0, 0, 1), (1, 1, 1), (2, 0, 2)], 3, 2);
        let mut c = Matrix::new(2, 2);
        ctx.mxm(
            &mut c,
            None,
            no_accum(),
            PlusTimes::new(),
            &a,
            &b,
            &Descriptor::new(),
        )
        .unwrap();
        assert_eq!(c.get(0, 0), Some(1));
        assert_eq!(c.get(0, 1), Some(2));
        assert_eq!(c.get(1, 0), Some(6));
    }

    #[test]
    fn mxm_with_transpose_a() {
        let ctx = Context::sequential();
        let a = mat(&[(0, 1, 5)], 2, 2); // Aᵀ has (1,0)=5
        let b = mat(&[(0, 0, 3)], 2, 2);
        let mut c = Matrix::new(2, 2);
        ctx.mxm(
            &mut c,
            None,
            no_accum(),
            PlusTimes::new(),
            &a,
            &b,
            &Descriptor::new().transpose_a(),
        )
        .unwrap();
        assert_eq!(c.get(1, 0), Some(15));
    }

    #[test]
    fn mxm_accumulates_into_old_output() {
        let ctx = Context::sequential();
        let a = mat(&[(0, 0, 2)], 1, 1);
        let b = mat(&[(0, 0, 3)], 1, 1);
        let mut c = mat(&[(0, 0, 100)], 1, 1);
        ctx.mxm(
            &mut c,
            None,
            Some(Plus::<i64>::new()),
            PlusTimes::new(),
            &a,
            &b,
            &Descriptor::new(),
        )
        .unwrap();
        assert_eq!(c.get(0, 0), Some(106));
    }

    #[test]
    fn mxm_dimension_errors() {
        let ctx = Context::sequential();
        let a = mat(&[], 2, 3);
        let b = mat(&[], 2, 3);
        let mut c = Matrix::new(2, 3);
        assert!(ctx
            .mxm(
                &mut c,
                None,
                no_accum(),
                PlusTimes::new(),
                &a,
                &b,
                &Descriptor::new()
            )
            .is_err());
        // wrong output shape
        let b_ok = mat(&[], 3, 3);
        let mut c_bad = Matrix::new(3, 3);
        assert!(ctx
            .mxm(
                &mut c_bad,
                None,
                no_accum(),
                PlusTimes::new(),
                &a,
                &b_ok,
                &Descriptor::new()
            )
            .is_err());
    }

    #[test]
    fn masked_mxm_on_both_backends() {
        let a_entries = [(0, 1, 1i64), (1, 2, 1), (2, 0, 1), (0, 2, 1)];
        let mask_entries = [(0usize, 2usize, true), (1, 0, true)];
        let a = mat(&a_entries, 3, 3);
        let mask = Matrix::build(3, 3, mask_entries.iter().copied(), Second::new()).unwrap();

        let seq = Context::sequential();
        let mut c1 = Matrix::new(3, 3);
        seq.mxm(
            &mut c1,
            Some(&mask),
            no_accum(),
            PlusTimes::new(),
            &a,
            &a,
            &Descriptor::new(),
        )
        .unwrap();

        let cuda = Context::cuda_default();
        let mut c2 = Matrix::new(3, 3);
        cuda.mxm(
            &mut c2,
            Some(&mask),
            no_accum(),
            PlusTimes::new(),
            &a,
            &a,
            &Descriptor::new(),
        )
        .unwrap();

        assert_eq!(c1, c2);
        // every output entry is inside the mask
        for (i, j, _) in c1.iter() {
            assert!(mask.get(i, j).is_some());
        }
    }

    #[test]
    fn complement_masked_mxm_filters() {
        let ctx = Context::sequential();
        let a = mat(&[(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)], 2, 2);
        let mask = Matrix::build(2, 2, [(0usize, 0usize, true)], Second::new()).unwrap();
        let mut c = Matrix::new(2, 2);
        ctx.mxm(
            &mut c,
            Some(&mask),
            no_accum(),
            PlusTimes::new(),
            &a,
            &a,
            &Descriptor::new().complement_mask(),
        )
        .unwrap();
        assert_eq!(c.get(0, 0), None);
        assert!(c.get(0, 1).is_some() && c.get(1, 0).is_some() && c.get(1, 1).is_some());
    }
}
