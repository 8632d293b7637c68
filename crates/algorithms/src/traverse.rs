//! One traversal level, owned end to end (DESIGN.md, "Direction
//! optimization").
//!
//! Per level: price both directions ([`LevelWork`]), take the
//! [`DirectionPolicy`]'s decision, open the `level.<name>` span, put the
//! frontier in the representation the chosen kernel consumes, run the
//! product — an `Auto` one the host pushes through
//! [`Context::priced_level`], which records the direction a device charged
//! (docs/adr/0012) — hand it to the algorithm's **epilogue**, roll the edge
//! totals and close the span. An algorithm brings a seed, its semiring(s)
//! and that closure; it never sees a direction, a representation or a
//! decision.
//!
//! An epilogue writes what the algorithm keeps, tells the [`Tally`] which
//! vertices [`enter`](Tally::enter) the next frontier and returns it. It
//! must not run a product on the traversed matrix, switch a representation
//! or record a span: the modeled clock, the decision records and the
//! direction tallies are pinned level by level, and this module is their
//! one author.

use gbtl_algebra::{Scalar, Semiring};
use gbtl_core::{
    no_accum, Backend, ChosenDir, Context, Descriptor, Direction, DirectionPolicy, FrontierRep,
    LevelDecision, LevelWork, Matrix, Product, Result, Vector,
};
use gbtl_sparse::CsrMatrix;

/// The driver's books on the frontier being assembled — what it cannot know
/// without re-reading it — and, under a masked product, the `visited` mask.
pub(crate) struct Tally<'a> {
    /// The traversed matrix's `row_ptr`: out-degrees are its differences.
    row_ptr: &'a [usize],
    visited: Option<Vector<bool>>,
    /// Σ out-degree of the entries: the edges push would walk.
    push_edges: usize,
    /// Positions that hold a value, over the whole traversal.
    settled: usize,
}

impl Tally<'_> {
    /// Vertex `i` enters the next frontier; `first`: it had no value before
    /// (always, under a mask).
    #[inline]
    pub(crate) fn enter(&mut self, i: usize, first: bool) {
        if let Some(visited) = &mut self.visited {
            visited.set(i, true);
        }
        self.push_edges += self.row_ptr[i + 1] - self.row_ptr[i];
        self.settled += first as usize;
    }
}

/// A traversal of `a` on `ctx` under one resolved policy, which carries the
/// product shape; `name` labels the level spans (`level.<name>`). Either
/// entry point runs the level loop to an empty frontier (or `n` levels — no
/// shortest-path tree is deeper, and a relaxation over a negative cycle
/// must still end).
pub(crate) struct Traversal<'a, B: Backend, D: Scalar> {
    ctx: &'a Context<B>,
    a: &'a Matrix<D>,
    policy: DirectionPolicy,
    name: &'static str,
}

impl<'a, B: Backend, D: Scalar> Traversal<'a, B, D> {
    pub(crate) fn new(
        ctx: &'a Context<B>,
        a: &'a Matrix<D>,
        policy: DirectionPolicy,
        name: &'static str,
    ) -> Self {
        Traversal {
            ctx,
            a,
            policy,
            name,
        }
    }

    /// A fused traversal of `a`: every level pushes (docs/adr/0009), so the
    /// policy is forced `Push`, built without probing for `Aᵀ`, and keeps
    /// the unmasked product's books.
    pub(crate) fn batch(ctx: &'a Context<B>, a: &'a Matrix<D>, name: &'static str) -> Self {
        let policy = DirectionPolicy::new(Direction::Push, a.nrows(), a.nnz(), false).unmasked();
        Self::new(ctx, a, policy, name)
    }

    /// Vector frontier from `src`: `vxm` pushing over the index list, `mxv`
    /// over cached `Aᵀ` pulling over the bitmap — under the complemented
    /// `visited` mask when the policy's product is a masked one. The
    /// semirings are a `(push, pull)` pair because the kernels see the
    /// operands in opposite order — `fᵀ ⊕.⊗ A` against `Aᵀ ⊕.⊗ f` — so a `⊗`
    /// that reads only the frontier is `First` pushing and `Second` pulling.
    pub(crate) fn vector<F, SP, SL>(
        &self,
        (push, pull): (SP, SL),
        src: usize,
        seed: F,
        epilogue: impl FnMut(&mut Tally, u64, Vector<F>) -> Result<Vector<F>>,
    ) -> Result<()>
    where
        F: Scalar,
        SP: Semiring<F, F, D>,
        SL: Semiring<F, D, F>,
    {
        let (ctx, a, n) = (self.ctx, self.a, self.a.nrows());
        let mut frontier = Vector::new(n);
        frontier.set(src, seed);
        // the device prices an `Auto` level the host pushes both ways, a
        // masked one's pull under `¬visited`; a level the host pulls is
        // charged its pull (docs/adr/0012)
        let priced = self.policy.mode() == Direction::Auto;
        let product =
            |decision: &mut LevelDecision, frontier: &mut Vector<F>, visited: Option<&_>| {
                match decision.rep {
                    FrontierRep::Bitmap => frontier.densify(),
                    FrontierRep::Sparse => frontier.sparsify(),
                }
                let desc = match visited {
                    Some(_) => Descriptor::new().complement_mask().replace(),
                    None => Descriptor::new(),
                };
                let frontier = &*frontier;
                let dir = decision.dir;
                let run = || {
                    let mut out = Vector::new(n);
                    match dir {
                        ChosenDir::Pull => {
                            let desc = desc.transpose_a();
                            ctx.mxv(&mut out, visited, no_accum(), pull, a, frontier, &desc)?
                        }
                        ChosenDir::Push => {
                            ctx.vxm(&mut out, visited, no_accum(), push, frontier, a, &desc)?
                        }
                    }
                    Ok(out)
                };
                if !(priced && decision.pull_ready && dir == ChosenDir::Push) {
                    return run();
                }
                let (out, device) = ctx.priced_level(pull, a, frontier, visited, run)?;
                decision.device = device;
                Ok(out)
            };
        self.run((frontier, &[src]), Vector::nnz, product, epilogue)
    }

    /// The k×n frontier `F` of `sources` stacked row-wise, one unmasked
    /// push `N = F ⊕.⊗ A` per level under a [`Traversal::batch`] policy.
    /// The epilogue is a filter: `keep(tally, depth, member, vertex, value)`
    /// says whether a product entry goes on, asked row-major straight off
    /// `N`'s CSR, and the survivors, compacted in place, are the next `F`.
    /// The frontier never leaves CSR (docs/adr/0011).
    pub(crate) fn fused<S: Semiring<D>>(
        &self,
        sr: S,
        sources: &[usize],
        seed: D,
        mut keep: impl FnMut(&mut Tally, u64, usize, usize, D) -> bool,
    ) -> Result<()> {
        let (ctx, a, k, n) = (self.ctx, self.a, sources.len(), self.a.nrows());
        let seeds = vec![seed; k];
        let frontier = CsrMatrix::from_parts(k, n, (0..=k).collect(), sources.to_vec(), seeds)?;
        self.run(
            (Matrix::from_csr(frontier), sources),
            Matrix::nnz,
            |_: &mut LevelDecision, frontier: &mut Matrix<D>, _| {
                let mut next = Matrix::new(k, n);
                let desc = Descriptor::new();
                ctx.mxm(&mut next, None, no_accum(), sr, frontier, a, &desc)?;
                // the fresh product is adopted by the write: no copy
                Ok(next.into_csr())
            },
            |tally, depth, mut next: CsrMatrix<D>| {
                next.retain(|r, j, v| keep(tally, depth, r, j, v));
                Ok(Matrix::from_csr(next))
            },
        )
    }

    /// The level loop, from a seed frontier holding `sources`.
    fn run<Fr, P>(
        &self,
        (mut frontier, sources): (Fr, &[usize]),
        nnz: fn(&Fr) -> usize,
        mut product: impl FnMut(&mut LevelDecision, &mut Fr, Option<&Vector<bool>>) -> Result<P>,
        mut epilogue: impl FnMut(&mut Tally, u64, P) -> Result<Fr>,
    ) -> Result<()> {
        let Traversal { ctx, policy, .. } = self;
        let (n, nnz_a, shape) = (policy.n(), policy.num_edges(), policy.product());
        let masked = matches!(shape, Product::Masked | Product::MaskedSum);
        let mut tally = Tally {
            row_ptr: self.a.csr().row_ptr(),
            visited: masked.then(|| Vector::new_dense(n)),
            push_edges: 0,
            settled: 0,
        };
        sources.iter().for_each(|&src| tally.enter(src, true));
        let mut pull_edges = nnz_a;
        for depth in 1..=n as u64 {
            let frontier_nnz = nnz(&frontier);
            if frontier_nnz == 0 {
                break;
            }
            let push_edges = std::mem::take(&mut tally.push_edges);
            pull_edges = shape.pull_edges(pull_edges, push_edges, nnz_a);
            let level = LevelWork {
                frontier_nnz,
                // a fused batch can settle more than n positions
                unvisited: n.saturating_sub(tally.settled),
                push_edges,
                pull_edges,
            };
            let mut decision = policy.decide_on(ctx.backend(), level);
            let t0 = ctx.level_start();
            let raw = product(&mut decision, &mut frontier, tally.visited.as_ref())?;
            frontier = epilogue(&mut tally, depth, raw)?;
            let (nnz_in, nnz_out) = (frontier_nnz as u64, nnz(&frontier) as u64);
            ctx.level_end(t0, self.name, depth, decision, nnz_in, nnz_out);
        }
        Ok(())
    }
}
