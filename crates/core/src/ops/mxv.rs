//! `mxv` (pull) and `vxm` (push) matrix–vector products.

// GraphBLAS operation signatures (output, mask, accumulator, operator,
// inputs, descriptor) are fixed by the spec.
#![allow(clippy::too_many_arguments)]

use gbtl_algebra::{BinaryOp, Scalar, Semiring};
use gbtl_sparse::VecMask;
use gbtl_trace::SpanFields;

use crate::backend::Backend;
use crate::descriptor::Descriptor;
use crate::error::{dim_err, Result};
use crate::stitch::{resolve_vec_mask, stitch_dense_vec, stitch_sparse_vec};
use crate::types::{Matrix, Vector};
use crate::Context;

/// Whether a backend product is the operation's output as it stands. With
/// no accumulator the output takes `t` at kept positions; the backends
/// produce nothing elsewhere ([`Backend::mxv`]), and what the old output
/// held elsewhere survives only without `replace` — so an unmasked product,
/// or a masked one under `replace`, needs no stitching.
fn is_output<Acc>(keep: Option<VecMask<'_>>, accum: &Option<Acc>, replace: bool) -> bool {
    accum.is_none() && (keep.is_none() || replace)
}

impl<B: Backend> Context<B> {
    /// `w<m, accum> = A ⊕.⊗ u` — pull direction (rows of `A` walk `u`).
    ///
    /// The (possibly complemented) mask is pushed into the backend as a keep
    /// test over the mask vector's own storage, so masked-out rows are
    /// skipped — the optimisation experiment R-A2 quantifies — and nothing
    /// is built per call. With a mask, `replace` and no accumulator the
    /// backend's result already is the output and passes straight through.
    ///
    /// The matrix is the semiring's first operand and is read in the domain
    /// it is stored in: `MinSecond<u64>` pulls `u64` labels over a boolean
    /// adjacency as it stands — and its own `(id, version)` is what the
    /// transpose cache is asked for.
    pub fn mxv<T, D1, S, Acc>(
        &self,
        w: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        accum: Option<Acc>,
        sr: S,
        a: &Matrix<D1>,
        u: &Vector<T>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        D1: Scalar,
        S: Semiring<T, D1, T>,
        Acc: BinaryOp<T>,
    {
        let t0 = self.span();
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        if a_csr.ncols() != u.len() {
            return Err(dim_err(
                "mxv",
                format!("{}x{} * len {}", a_csr.nrows(), a_csr.ncols(), u.len()),
            ));
        }
        if w.len() != a_csr.nrows() {
            return Err(dim_err(
                "mxv",
                format!("output len {} != {}", w.len(), a_csr.nrows()),
            ));
        }
        if let Some(mk) = mask {
            if mk.len() != w.len() {
                return Err(dim_err(
                    "mxv",
                    format!("mask len {} != output len {}", mk.len(), w.len()),
                ));
            }
        }
        let nnz_in = (a_csr.nnz() + u.nnz()) as u64;
        let (masked, has_accum) = (mask.is_some(), accum.is_some());
        let keep = resolve_vec_mask(mask, desc.complement_mask, a_csr.nrows());
        // Borrow the bitmap representation when the operand already holds
        // it (a direction-optimized frontier after `adapt_repr`); convert
        // only when it doesn't — the pull hot path must not copy per level.
        let u_conv;
        let u_dense = match u.repr() {
            crate::types::VectorRepr::Dense(d) => d,
            crate::types::VectorRepr::Sparse(s) => {
                u_conv = s.to_dense();
                &u_conv
            }
        };
        let keep = keep.as_ref().map(|k| k.view());
        let t = self.backend().mxv(&a_csr, u_dense, sr, keep);
        *w = Vector::from(if is_output(keep, &accum, desc.replace) {
            debug_assert!(t.iter().all(|(i, _)| keep.is_none_or(|k| k.keeps(i))));
            t
        } else {
            stitch_dense_vec(w, t, keep, accum, desc.replace)
        });
        let nnz_out = w.nnz() as u64;
        let (nr, nc) = (a_csr.nrows(), a_csr.ncols());
        self.span_end(t0, || SpanFields {
            op: "mxv",
            op_label: gbtl_trace::short_type_name::<S>(),
            dims: format!("{nr}x{nc}*{nc}"),
            nnz_in,
            nnz_out,
            masked,
            complemented: masked && desc.complement_mask,
            accum: has_accum,
        });
        Ok(())
    }

    /// `w<m, accum> = uᵀ ⊕.⊗ A` — push direction (stored entries of `u`
    /// select rows of `A`).
    ///
    /// A masked level of a traversal (`visited` as a bitmap vector,
    /// complemented, `replace`, no accumulator, sparse frontier) does no
    /// O(n) work here: the mask is handed to the backend as it is stored and
    /// the backend's result is the output.
    ///
    /// Here the matrix is the semiring's *second* operand (`MinFirst<u64>`
    /// pushes vertex ids over a boolean adjacency).
    pub fn vxm<T, D2, S, Acc>(
        &self,
        w: &mut Vector<T>,
        mask: Option<&Vector<bool>>,
        accum: Option<Acc>,
        sr: S,
        u: &Vector<T>,
        a: &Matrix<D2>,
        desc: &Descriptor,
    ) -> Result<()>
    where
        T: Scalar,
        D2: Scalar,
        S: Semiring<T, T, D2>,
        Acc: BinaryOp<T>,
    {
        // For vxm the descriptor's transpose_a transposes the matrix, i.e.
        // `w = uᵀAᵀ`, which is the pull form of `A u`.
        let t0 = self.span();
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        if u.len() != a_csr.nrows() {
            return Err(dim_err(
                "vxm",
                format!("len {} * {}x{}", u.len(), a_csr.nrows(), a_csr.ncols()),
            ));
        }
        if w.len() != a_csr.ncols() {
            return Err(dim_err(
                "vxm",
                format!("output len {} != {}", w.len(), a_csr.ncols()),
            ));
        }
        if let Some(mk) = mask {
            if mk.len() != w.len() {
                return Err(dim_err(
                    "vxm",
                    format!("mask len {} != output len {}", mk.len(), w.len()),
                ));
            }
        }
        let nnz_in = (a_csr.nnz() + u.nnz()) as u64;
        let (masked, has_accum) = (mask.is_some(), accum.is_some());
        let keep = resolve_vec_mask(mask, desc.complement_mask, a_csr.ncols());
        // Mirror of `mxv`: borrow the index-list representation when the
        // frontier already carries it, convert otherwise.
        let u_conv;
        let u_sparse = match u.repr() {
            crate::types::VectorRepr::Sparse(s) => s,
            crate::types::VectorRepr::Dense(d) => {
                u_conv = d.to_sparse();
                &u_conv
            }
        };
        let keep = keep.as_ref().map(|k| k.view());
        let t = self.backend().vxm(u_sparse, &a_csr, sr, keep);
        *w = Vector::from(if is_output(keep, &accum, desc.replace) {
            debug_assert!(t.indices().iter().all(|&j| keep.is_none_or(|k| k.keeps(j))));
            t
        } else {
            stitch_sparse_vec(w, t, keep, accum, desc.replace)
        });
        let nnz_out = w.nnz() as u64;
        let (nr, nc) = (a_csr.nrows(), a_csr.ncols());
        self.span_end(t0, || SpanFields {
            op: "vxm",
            op_label: gbtl_trace::short_type_name::<S>(),
            dims: format!("{nr}*{nr}x{nc}"),
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
    use gbtl_algebra::{LorLand, MinPlus, Plus, PlusTimes, Second};

    fn graph() -> Matrix<i64> {
        Matrix::build(
            4,
            4,
            [
                (0usize, 1usize, 3i64),
                (0, 2, 1),
                (1, 2, 1),
                (2, 0, 2),
                (2, 3, 8),
                (3, 1, 4),
            ],
            Second::new(),
        )
        .unwrap()
    }

    #[test]
    fn mxv_pull_on_both_backends() {
        let a = graph();
        let u = Vector::filled(4, 1i64);
        let mut w1 = Vector::new(4);
        let mut w2 = Vector::new(4);
        Context::sequential()
            .mxv(
                &mut w1,
                None,
                no_accum(),
                PlusTimes::new(),
                &a,
                &u,
                &Descriptor::new(),
            )
            .unwrap();
        Context::cuda_default()
            .mxv(
                &mut w2,
                None,
                no_accum(),
                PlusTimes::new(),
                &a,
                &u,
                &Descriptor::new(),
            )
            .unwrap();
        assert_eq!(w1, w2);
        assert_eq!(w1.get(0), Some(4)); // 3 + 1
        assert_eq!(w1.get(2), Some(10)); // 2 + 8
    }

    #[test]
    fn vxm_push_on_both_backends() {
        let a = graph();
        let mut u = Vector::new(4);
        u.set(0, 0i64); // distance 0 at source
        let mut w1 = Vector::new(4);
        let mut w2 = Vector::new(4);
        Context::sequential()
            .vxm(
                &mut w1,
                None,
                no_accum(),
                MinPlus::new(),
                &u,
                &a,
                &Descriptor::new(),
            )
            .unwrap();
        Context::cuda_default()
            .vxm(
                &mut w2,
                None,
                no_accum(),
                MinPlus::new(),
                &u,
                &a,
                &Descriptor::new(),
            )
            .unwrap();
        assert_eq!(w1, w2);
        assert_eq!(w1.get(1), Some(3));
        assert_eq!(w1.get(2), Some(1));
    }

    #[test]
    fn vxm_complement_mask_is_bfs_step() {
        // visited = {0}; frontier = {0}: next frontier must exclude 0.
        let adj = Matrix::build(
            4,
            4,
            [(0usize, 1usize, true), (0, 0, true), (1, 2, true)],
            Second::new(),
        )
        .unwrap();
        let mut visited = Vector::new(4);
        visited.set(0, true);
        let mut frontier = Vector::new(4);
        frontier.set(0, true);
        let mut next = Vector::new(4);
        Context::sequential()
            .vxm(
                &mut next,
                Some(&visited),
                no_accum(),
                LorLand::new(),
                &frontier,
                &adj,
                &Descriptor::new().complement_mask().replace(),
            )
            .unwrap();
        assert!(!next.contains(0), "self-loop into visited must be masked");
        assert!(next.contains(1));
    }

    #[test]
    fn mxv_accum_merges() {
        let a = graph();
        let u = Vector::filled(4, 1i64);
        let mut w = Vector::new(4);
        w.set(0, 100i64);
        Context::sequential()
            .mxv(
                &mut w,
                None,
                Some(Plus::<i64>::new()),
                PlusTimes::new(),
                &a,
                &u,
                &Descriptor::new(),
            )
            .unwrap();
        assert_eq!(w.get(0), Some(104));
    }

    #[test]
    fn dimension_errors() {
        let a = graph();
        let u = Vector::<i64>::new(3);
        let mut w = Vector::new(4);
        assert!(Context::sequential()
            .mxv(
                &mut w,
                None,
                no_accum(),
                PlusTimes::new(),
                &a,
                &u,
                &Descriptor::new()
            )
            .is_err());
        let u4 = Vector::<i64>::new(4);
        let mut w3 = Vector::new(3);
        assert!(Context::sequential()
            .vxm(
                &mut w3,
                None,
                no_accum(),
                PlusTimes::new(),
                &u4,
                &a,
                &Descriptor::new()
            )
            .is_err());
    }

    #[test]
    fn mxv_transpose_a_equals_vxm() {
        let a = graph();
        let mut u = Vector::new(4);
        u.set(1, 7i64);
        u.set(3, 9);
        let mut pull = Vector::new(4);
        Context::sequential()
            .mxv(
                &mut pull,
                None,
                no_accum(),
                PlusTimes::new(),
                &a,
                &u,
                &Descriptor::new().transpose_a(),
            )
            .unwrap();
        let mut push = Vector::new(4);
        Context::sequential()
            .vxm(
                &mut push,
                None,
                no_accum(),
                PlusTimes::new(),
                &u,
                &a,
                &Descriptor::new(),
            )
            .unwrap();
        assert_eq!(pull, push);
    }

    /// A random n×n matrix, frontier, old output and mask from one seed.
    #[allow(clippy::type_complexity)]
    fn random_operands(
        n: usize,
        seed: u64,
    ) -> (Matrix<i64>, Vector<i64>, Vector<i64>, Vector<bool>) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut triples = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if rng.gen_range(0..4) == 0 {
                    triples.push((i, j, rng.gen_range(1..50i64)));
                }
            }
        }
        let a = Matrix::build(n, n, triples, Second::new()).unwrap();
        let (mut u, mut old, mut mask) = (Vector::new(n), Vector::new(n), Vector::new(n));
        for i in 0..n {
            if rng.gen_range(0..3) == 0 {
                u.set(i, rng.gen_range(1..50i64));
            }
            if rng.gen_range(0..3) == 0 {
                old.set(i, rng.gen_range(100..150i64));
            }
            if rng.gen_range(0..2) == 0 {
                // structural: a stored `false` masks like a stored `true`
                mask.set(i, rng.gen_range(0..2) == 0);
            }
        }
        (a, u, old, mask)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Mask + `replace` + no accumulator hands the backend's product
        /// through unstitched. It must equal what the general stitcher makes
        /// of the *unmasked* product — for every mask, both complement
        /// settings, a sparse and a bitmap mask vector, a sparse and a
        /// bitmap frontier, on all three backends, push and pull.
        #[test]
        fn masked_replace_pass_through_equals_the_general_stitcher(
            seed in 0u64..10_000,
            n in 1usize..24,
            complement in proptest::prelude::any::<bool>(),
            bitmap_mask in proptest::prelude::any::<bool>(),
            bitmap_frontier in proptest::prelude::any::<bool>(),
        ) {
            let (a, mut u, old, mut mask) = random_operands(n, seed);
            if bitmap_mask {
                mask.densify();
            }
            if bitmap_frontier {
                u.densify();
            }
            let mut desc = Descriptor::new().replace();
            if complement {
                desc = desc.complement_mask();
            }
            let resolved = resolve_vec_mask(Some(&mask), complement, n).unwrap();
            let sr = MinPlus::<i64>::new();

            fn check<B: Backend>(
                ctx: Context<B>,
                a: &Matrix<i64>,
                u: &Vector<i64>,
                old: &Vector<i64>,
                mask: &Vector<bool>,
                desc: &Descriptor,
                want_push: &Vector<i64>,
                want_pull: &Vector<i64>,
            ) {
                let sr = MinPlus::<i64>::new();
                let mut w = old.clone();
                ctx.vxm(&mut w, Some(mask), no_accum(), sr, u, a, desc).unwrap();
                assert_eq!(&w, want_push, "vxm on {}", ctx.backend_name());
                let mut w = old.clone();
                ctx.mxv(&mut w, Some(mask), no_accum(), sr, a, u, desc).unwrap();
                assert_eq!(&w, want_pull, "mxv on {}", ctx.backend_name());
            }

            let push = gbtl_backend_seq::vxm(&u.to_sparse_repr(), a.csr(), sr, None);
            let want_push = Vector::from(stitch_sparse_vec(
                &old,
                push,
                Some(resolved.view()),
                no_accum(),
                true,
            ));
            let pull = gbtl_backend_seq::mxv(a.csr(), &u.to_dense_repr(), sr, None);
            let want_pull = Vector::from(stitch_dense_vec(
                &old,
                pull,
                Some(resolved.view()),
                no_accum(),
                true,
            ));
            check(Context::sequential(), &a, &u, &old, &mask, &desc, &want_push, &want_pull);
            check(
                Context::parallel_with_threads(3),
                &a, &u, &old, &mask, &desc, &want_push, &want_pull,
            );
            check(Context::cuda_default(), &a, &u, &old, &mask, &desc, &want_push, &want_pull);
        }
    }
}
