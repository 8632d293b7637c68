//! One traversal level, owned end to end (DESIGN.md, "Direction
//! optimization").
//!
//! Per level: price both directions ([`LevelWork`]), take the
//! [`DirectionPolicy`]'s decision, open the `level.<name>` span, put the
//! frontier in the representation the chosen kernel consumes, run the
//! product — an `Auto` one the host pushes through
//! [`Context::priced_level`], a fused one through
//! [`Context::priced_fused_level`], which record the direction a device
//! charged (docs/adr/0012, 0015) — hand it to the algorithm's
//! **epilogue**, roll the edge
//! totals and close the span. An algorithm brings a seed, its semiring(s)
//! and that closure; it never sees a direction, a representation or a
//! decision.
//!
//! An epilogue writes what the algorithm keeps, tells the [`Tally`] which
//! vertices [`enter`](Tally::enter) the next frontier and returns the
//! product, filtered: the next frontier is what it kept of the product,
//! compacted in place, never a list rebuilt entry by entry (docs/adr/0020).
//! It must not run a product on the traversed matrix, switch a
//! representation or record a span: the modeled clock, the decision
//! records and the direction tallies are pinned level by level, and this
//! module is their one author.

use gbtl_algebra::{Scalar, Semiring};
use gbtl_core::{
    no_accum, Backend, ChosenDir, Context, Descriptor, Direction, DirectionPolicy, FrontierRep,
    LevelDecision, LevelWork, Matrix, Product, Result, Vector,
};
use gbtl_sparse::CsrMatrix;

/// The driver's books on the frontier being assembled — what it cannot know
/// without re-reading it — and, under a masked product, the `visited` mask:
/// a vector, or a fused traversal's k×n bitmap.
pub(crate) struct Tally<'a> {
    /// The traversed matrix's `row_ptr`: out-degrees are its differences.
    row_ptr: &'a [usize],
    visited: Option<Vector<bool>>,
    /// A masked fused traversal's k×n visited bitmap, packed 64 vertices a
    /// word, member `r`'s row at words `[r·w, (r+1)·w)` for `w = ⌈n/64⌉`;
    /// empty otherwise.
    members_visited: Vec<u64>,
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

    /// Member `r` of a masked fused traversal reaches `i`: true the first
    /// time, when the member's complemented mask keeps it.
    #[inline]
    pub(crate) fn visit(&mut self, r: usize, i: usize) -> bool {
        let words = (self.row_ptr.len() - 1).div_ceil(64);
        let (word, bit) = (&mut self.members_visited[r * words + i / 64], 1 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
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

    /// A fused traversal of `a`: the host pushes every level
    /// (docs/adr/0009), so the policy is forced `Push`, built without
    /// probing for `Aᵀ`, and keeps the unmasked product's books; a device
    /// prices each level both ways (docs/adr/0015).
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
        let product = |decision: &mut LevelDecision, frontier: &mut Vector<F>, tally: &Tally| {
            let visited = tally.visited.as_ref();
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
        self.run((frontier, &[src]), false, Vector::nnz, product, epilogue)
    }

    /// The k×n frontier `F` of `sources` stacked row-wise, one unmasked
    /// push `N = F ⊕.⊗ A` per level under a [`Traversal::batch`] policy,
    /// priced as a k-stacked pull too on a device ([`Context::priced_fused_level`];
    /// `(push, pull)` as [`Traversal::vector`] takes them). `masked`: each
    /// member keeps only what it has not visited, in a k×n bitmap the
    /// epilogue marks through [`Tally::visit`] and the pull price reads.
    /// The epilogue is a filter: `keep(tally, depth, member, vertex, value)`
    /// says whether a product entry goes on, asked row-major straight off
    /// `N`'s CSR, and the survivors, compacted in place, are the next `F`.
    /// The frontier never leaves CSR (docs/adr/0011).
    pub(crate) fn fused<SP, SL>(
        &self,
        (push, pull): (SP, SL),
        sources: &[usize],
        seed: D,
        masked: bool,
        mut keep: impl FnMut(&mut Tally, u64, usize, usize, D) -> bool,
    ) -> Result<()>
    where
        SP: Semiring<D>,
        SL: Semiring<D>,
    {
        let (ctx, a, k, n) = (self.ctx, self.a, sources.len(), self.a.nrows());
        let seeds = vec![seed; k];
        let frontier = CsrMatrix::from_parts(k, n, (0..=k).collect(), sources.to_vec(), seeds)?;
        self.run(
            (Matrix::from_csr(frontier), sources),
            masked,
            Matrix::nnz,
            |decision: &mut LevelDecision, frontier: &mut Matrix<D>, tally: &Tally| {
                let run = || {
                    let mut next = Matrix::new(k, n);
                    let desc = Descriptor::new();
                    ctx.mxm(&mut next, None, no_accum(), push, &*frontier, a, &desc)?;
                    // the fresh product is adopted by the write: no copy
                    Ok(next.into_csr())
                };
                let visited = masked.then_some(&tally.members_visited[..]);
                let (next, device) = ctx.priced_fused_level(pull, a, frontier, visited, run)?;
                decision.device = device;
                Ok(next)
            },
            |tally, depth, mut next: CsrMatrix<D>| {
                next.retain(|r, j, v| keep(tally, depth, r, j, v));
                Ok(Matrix::from_csr(next))
            },
        )
    }

    /// The level loop, from a seed frontier holding `sources`, one row of
    /// it per source when `members_masked` (a masked fused traversal).
    fn run<Fr, P>(
        &self,
        (mut frontier, sources): (Fr, &[usize]),
        members_masked: bool,
        nnz: fn(&Fr) -> usize,
        mut product: impl FnMut(&mut LevelDecision, &mut Fr, &Tally) -> Result<P>,
        mut epilogue: impl FnMut(&mut Tally, u64, P) -> Result<Fr>,
    ) -> Result<()> {
        let Traversal { ctx, policy, .. } = self;
        let (n, nnz_a, shape) = (policy.n(), policy.num_edges(), policy.product());
        let masked = matches!(shape, Product::Masked | Product::MaskedSum);
        let mut tally = Tally {
            row_ptr: self.a.csr().row_ptr(),
            visited: masked.then(|| Vector::new_dense(n)),
            members_visited: Vec::new(),
            push_edges: 0,
            settled: 0,
        };
        if members_masked {
            tally.members_visited = vec![0; sources.len() * n.div_ceil(64)];
            for (r, &src) in sources.iter().enumerate() {
                tally.visit(r, src);
            }
        }
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
            let raw = product(&mut decision, &mut frontier, &tally)?;
            frontier = epilogue(&mut tally, depth, raw)?;
            let (nnz_in, nnz_out) = (frontier_nnz as u64, nnz(&frontier) as u64);
            ctx.level_end(t0, self.name, depth, decision, nnz_in, nnz_out);
        }
        Ok(())
    }
}
