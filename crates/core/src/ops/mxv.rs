//! `mxv` (pull) and `vxm` (push) matrix–vector products.

// GraphBLAS operation signatures (output, mask, accumulator, operator,
// inputs, descriptor) are fixed by the spec.
#![allow(clippy::too_many_arguments)]

use gbtl_algebra::{BinaryOp, Scalar, Semiring};
use gbtl_backend_cuda::charge;
use gbtl_trace::short_type_name;

use crate::backend::Backend;
use crate::descriptor::Descriptor;
use crate::error::Result;
use crate::policy::DevicePrice;
use crate::stitch::{ensure, unvisited, vec_out};
use crate::types::{Matrix, Vector};
use crate::Context;

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
        let span = self.op_span("mxv", short_type_name::<S>);
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        let (nr, nc) = (a_csr.nrows(), a_csr.ncols());
        ensure("mxv", nc == u.len(), || {
            format!("{nr}x{nc} * len {}", u.len())
        })?;
        ensure("mxv", w.len() == nr, || {
            format!("output len {} != {nr}", w.len())
        })?;
        let mut out = vec_out("mxv", mask, accum, desc, nr)?;
        // The bitmap view borrows a frontier that already holds it (a
        // direction-optimized one does): the pull hot path copies nothing
        // per level.
        let t = self
            .backend()
            .mxv(&a_csr, &u.dense_view(), sr, out.push_down());
        self.write_vec(w, t, out, span, a_csr.nnz() + u.nnz(), || {
            format!("{nr}x{nc}*{nc}")
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
        let span = self.op_span("vxm", short_type_name::<S>);
        let a_csr = self.resolve_operand(a, desc.transpose_a);
        let (nr, nc) = (a_csr.nrows(), a_csr.ncols());
        ensure("vxm", u.len() == nr, || {
            format!("len {} * {nr}x{nc}", u.len())
        })?;
        ensure("vxm", w.len() == nc, || {
            format!("output len {} != {nc}", w.len())
        })?;
        let mut out = vec_out("vxm", mask, accum, desc, nc)?;
        // Mirror of `mxv`: the index-list view borrows a sparse frontier.
        let t = self
            .backend()
            .vxm(&u.sparse_view(), &a_csr, sr, out.push_down());
        self.write_vec(w, t, out, span, a_csr.nnz() + u.nnz(), || {
            format!("{nr}*{nr}x{nc}")
        });
        Ok(())
    }

    /// A vector product `f ⊕.⊗ A` the host pushes, under the complemented
    /// `visited` mask when it has one — an `Auto` traversal level, or MIS's
    /// knock-out (docs/adr/0016): `run` computes it, and with `Aᵀ` resident
    /// the backend charges the direction its device prices cheaper
    /// ([`Backend::level`], docs/adr/0012). Pull is priced here from `run`'s result: the mask's
    /// [`charge::mask_resolve`] when there is one, then `charge::mxv` over
    /// the resident `Aᵀ` under `¬visited`, whose rows stop early where
    /// `pull`'s add monoid reached its terminal value (walked to there only
    /// where that can move the charge, [`charge::exit_rows`]). Returns the
    /// result and the device's choice (`None` on a backend without a
    /// device).
    pub fn priced_level<F, D, SL>(
        &self,
        pull: SL,
        a: &Matrix<D>,
        frontier: &Vector<F>,
        visited: Option<&Vector<bool>>,
        run: impl FnOnce() -> Result<Vector<F>>,
    ) -> Result<(Vector<F>, Option<DevicePrice>)>
    where
        F: Scalar,
        D: Scalar,
        SL: Semiring<F, D, F>,
    {
        let (out, device) = self.backend().level(run, |out, device| {
            let (Ok(out), Some(at)) = (out, self.transpose_cache().peek::<D>(a.id(), a.version()))
            else {
                return false;
            };
            let keep = unvisited(visited, at.nrows());
            let mask = keep.as_ref().map(|m| m.view());
            if mask.is_some() {
                charge::mask_resolve(device, at.nrows());
            }
            let u = |j| frontier.get(j);
            let exits = charge::exit_rows::<F, D>(device, &at);
            let walked = out
                .iter()
                .filter(|&(i, _)| exits[i / 64] >> (i % 64) & 1 == 1);
            let early = gbtl_backend_seq::early_exits(pull, &at, u, walked);
            charge::mxv::<F, D>(device, &at, mask, &early);
            true
        });
        Ok((out?, device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::no_accum;
    use crate::stitch::{resolve_vec_mask, stitch_dense_vec, stitch_sparse_vec};
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
