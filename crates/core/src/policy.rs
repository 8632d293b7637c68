//! Per-level direction policy: push vs pull, sparse vs bitmap.
//!
//! The best-known GraphBLAS traversal lever (GraphBLAST, Gunrock, Beamer's
//! direction-optimizing BFS): a level can run **push** (`vxm` over a sparse
//! index-list frontier — work proportional to the frontier's out-edges) or
//! **pull** (`mxv` over `Aᵀ` with a dense bitmap frontier — work
//! proportional to the edges of the rows it may still write). This module
//! centralizes that choice so `bfs`, `sssp` and `bc` all take it per level
//! from one rule instead of hardcoding a direction. The host pushes every
//! fused multi-source level (docs/adr/0009); a device prices it both ways
//! (docs/adr/0015).
//!
//! ## The rule: compare the edges each side must touch
//!
//! Beamer's crossover is `m_f` (edges out of the frontier) against `m_u`
//! (edges of the unexplored rows), not a vertex count: on a scale-free
//! graph a hub level's few hundred entries can carry most of the edges.
//! The traversal driver therefore keeps, exactly and at O(1) per newly
//! reached vertex inside the epilogue loop an algorithm already runs, the
//! two totals one level's kernels would walk ([`LevelWork`]):
//!
//! * `push_edges` — Σ out-degree of the frontier;
//! * `pull_edges` — what pull would scan, by [`Product::pull_edges`].
//!   Degrees are `A`'s own `row_ptr` differences; on a symmetric graph —
//!   every catalog graph — that is the in-degree pull really reads.
//!
//! `Auto` runs a level pull only when `Aᵀ` is resident (built by a prior
//! pull, prewarmed, or seeded from a symmetric matrix — without it "pull"
//! would pay an O(nnz) transpose before the first saved edge) **and**
//!
//! ```text
//! pull_edges · C_PULL + n · C_PULL_ROW + pull_overhead
//!     <  push_edges · C_PUSH + push_overhead
//! ```
//!
//! with costs measured on the perfbench graphs ([`KernelCosts`], one set per
//! [`Product`]: a BFS pull row stops at its first frontier neighbour —
//! `Lor`'s terminal value — so a scanned edge costs pull a quarter of what
//! a walked edge costs push, while BC's path counts add up under `Plus`,
//! which has none, and a scanned edge costs what a walked one does; the row
//! term is why the last levels of a BFS, a dozen edges on either side, go
//! back to push).
//! The backend owns the comparison through [`Backend::prefers_pull`]: seq
//! and cuda-sim use the rule as is, par adds its fan-out cost to the side
//! that fans out (pull) — so the frontend stays backend-blind. On cuda-sim
//! the rule picks only the direction the *host* computes a level in: what
//! the device is charged for an `Auto` level is the direction its own model
//! prices cheaper, priced from the level's result ([`DevicePrice`],
//! `Backend::level`, docs/adr/0012).
//!
//! The frontier *representation* follows the direction the level runs in
//! (push kernels consume the index list, pull kernels the bitmap), so a
//! switch converts the frontier exactly once, at the crossover.

use std::sync::atomic::{AtomicU64, Ordering};

use gbtl_algebra::Scalar;

use crate::backend::Backend;
use crate::context::Context;
use crate::types::Matrix;

/// Requested traversal direction — what callers (and the serve protocol's
/// `"direction"` field) ask for. [`Direction::Auto`] is the per-level
/// rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Frontier pushes along out-edges (`vxm` on a sparse frontier).
    Push,
    /// Unvisited vertices pull along in-edges (`mxv` over `Aᵀ`).
    Pull,
    /// Decide per level from frontier density, unvisited count, and
    /// transpose-cache residency.
    #[default]
    Auto,
}

impl Direction {
    /// Canonical spelling (`push`/`pull`/`auto`).
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
            Direction::Auto => "auto",
        }
    }

    /// Parse the canonical spellings; `None` for anything else (callers
    /// decide whether that is a warning or a bad request).
    pub fn parse(s: &str) -> Option<Direction> {
        match s.trim().to_ascii_lowercase().as_str() {
            "push" => Some(Direction::Push),
            "pull" => Some(Direction::Pull),
            "auto" => Some(Direction::Auto),
            _ => None,
        }
    }
}

/// The direction one level actually ran (no `Auto` — the decision is made).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenDir {
    /// `vxm` on the sparse frontier.
    Push,
    /// `mxv` over cached `Aᵀ` on the bitmap frontier.
    Pull,
}

impl ChosenDir {
    /// `push` / `pull` — the `dir=` span attribute value.
    pub fn as_str(self) -> &'static str {
        match self {
            ChosenDir::Push => "push",
            ChosenDir::Pull => "pull",
        }
    }
}

/// The physical frontier representation one level ran with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierRep {
    /// Sorted index + value list.
    Sparse,
    /// Dense value array with a presence bitmap.
    Bitmap,
}

impl FrontierRep {
    /// `sparse` / `bitmap` — the `rep=` span attribute value.
    pub fn as_str(self) -> &'static str {
        match self {
            FrontierRep::Sparse => "sparse",
            FrontierRep::Bitmap => "bitmap",
        }
    }
}

/// What a device backend charged one priced product — an `Auto` level, or
/// a product with a second formulation (docs/adr/0016): the direction its
/// model prices cheaper, push the host's, and both prices in modeled
/// picoseconds, each taken from the host's result (docs/adr/0012).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevicePrice {
    /// The direction charged: the cheaper price, push on a tie.
    pub dir: ChosenDir,
    /// What the device would be charged to push the level.
    pub push_ps: u64,
    /// What the device would be charged to pull it.
    pub pull_ps: u64,
}

/// One level's resolved decision, with the inputs it was taken from — the
/// decision record [`Context::level_end`] writes next to `dir=`/`rep=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelDecision {
    /// Which kernel family runs this level.
    pub dir: ChosenDir,
    /// Which frontier layout it consumes.
    pub rep: FrontierRep,
    /// Edges push would walk ([`LevelWork::push_edges`]).
    pub push_edges: usize,
    /// Edges pull would scan ([`LevelWork::pull_edges`]).
    pub pull_edges: usize,
    /// Whether `Aᵀ` was resident, i.e. whether `Auto` could pull at all.
    pub pull_ready: bool,
    /// Where a device chose what it was charged — an `Auto` level the host
    /// pushes with `Aᵀ` resident on a device backend — its choice; set by
    /// the level's product, `None` until then and everywhere else.
    pub device: Option<DevicePrice>,
}

/// Which product a traversal runs per level — what the per-edge costs
/// depend on. A fused multi-source level is an unmasked one that always
/// pushes (docs/adr/0009).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Product {
    /// `vxm`/`mxv` under the complemented `visited` mask, over an add
    /// monoid with a terminal value (BFS's `Lor`): a pull row stops early.
    Masked,
    /// The same masked product over an add monoid without one (BC's path
    /// counts under `Plus`): a pull row is folded to its end.
    MaskedSum,
    /// Unmasked `vxm`/`mxv` (SSSP's relaxation).
    Unmasked,
}

/// What one level's kernels cost per unit of work, in picoseconds — the
/// constants of the direction rule, one set per [`Product`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCosts {
    /// Push, per edge out of the frontier.
    pub push_edge_ps: u64,
    /// Pull, per edge of the rows it scans.
    pub pull_edge_ps: u64,
    /// Pull, per row of `Aᵀ`: the mask test, the `row_ptr` loads, the
    /// bitmap output and its O(n) epilogue, whatever the rows hold.
    pub pull_row_ps: u64,
}

// Measured on the sequential backend, one pinned CPU, on the perfbench
// graphs (`rmat14` ef 16, `rmat12`/`rmat10` ef 8, `torus96`; hub sources):
// level and kernel wall time of traced forced-push and forced-pull runs,
// best of 9, against the level's `push_edges` / `pull_edges` from its
// decision record (the per-level table is EXPERIMENTS.md R-E21), with pull
// rows stopping at the monoid's terminal value and dense push rounds
// emitting by a sweep. Re-measure when a kernel changes.

/// Masked `vxm`/`mxv` that can stop early (BFS). Push 1.9–7.3 ns an edge on levels over
/// 10 K edges (the mask test mispredicts where visited and unvisited mix;
/// such a level emits by an index-order sweep, a smaller one by sorting its
/// touched list), 4.5–5.4 on a hub's first level. Pull 0.5–1.1 ns a scanned
/// edge on `rmat14`, 0.9–2.5 on `rmat12`: a row stops at its first frontier
/// neighbour (`Lor`'s terminal value), so a saturated level reads a
/// fraction of `pull_edges`, and a level-1 frontier, which almost no row
/// meets, scans them all at 0.5–0.6 ns. On top of that 1.4–4.5 ns a row:
/// the last levels of a BFS pull 14–70 µs (n = 4 096–16 384) for a dozen
/// edges that push walks in 1–5 µs.
pub const MASKED_COSTS: KernelCosts = KernelCosts {
    push_edge_ps: 4_000,
    pull_edge_ps: 1_000,
    pull_row_ps: 3_000,
};

/// Masked `vxm`/`mxv` over a monoid with no terminal value (BC's forward
/// sweep, `f64` path counts under `Plus`). Push 4.0–9.1 ns an edge where
/// visited and unvisited mix (a hub's level 2), 1.9–4.5 on the level after;
/// pull 1.2–2.3 ns a scanned edge while the frontier bitmap misses (level 1)
/// and 4.8–8.1 once hits and misses mix, net of ≈ 3 ns a row — every row is
/// folded to its end, so an edge costs pull what it costs push and only the
/// edge counts decide (`rmat14`: a hub's level 2 pulls 80 K edges in 693 µs
/// against 1 647 µs pushing 343 K; a median-degree source's level 3 pushes
/// 194 K in 1 487 µs against 1 772 µs pulling 231 K).
pub const MASKED_SUM_COSTS: KernelCosts = KernelCosts {
    push_edge_ps: 6_000,
    pull_edge_ps: 6_000,
    pull_row_ps: 3_000,
};

/// Unmasked `vxm`/`mxv` (SSSP). Push 1.8–2.7 ns an edge on rounds over
/// 100 K edges, which emit by a sweep (2.1–4.2 on the smaller graphs'
/// dense rounds; a round under `n` edges sorts and pays 8–16). Pull
/// 0.9–6.0 ns per scanned edge, rows included, and 2.3–6.0 in the heavy
/// rounds: `(min, +)` over positive weights never reaches `Min`'s terminal
/// value, so every row is folded to its end — no cheaper than push per edge
/// while scanning all of `nnz(A)`, so a solo round (`push_edges ≤ nnz(A)`)
/// never pulls.
pub const UNMASKED_COSTS: KernelCosts = KernelCosts {
    push_edge_ps: 2_500,
    pull_edge_ps: 4_000,
    pull_row_ps: 3_000,
};

impl Product {
    /// The measured kernel costs of this product.
    pub const fn costs(self) -> KernelCosts {
        match self {
            Product::Masked => MASKED_COSTS,
            Product::MaskedSum => MASKED_SUM_COSTS,
            Product::Unmasked => UNMASKED_COSTS,
        }
    }

    /// The edges a pull level of this product scans, for a frontier that
    /// carries `push_edges` on a graph of `nnz_a` stored edges: a masked
    /// product reads the still-unvisited rows — the previous level's
    /// remainder `prev` (`nnz_a` before the first) minus the edges just
    /// settled; an unmasked relaxation all of `nnz_a` (any vertex may still
    /// improve).
    pub const fn pull_edges(self, prev: usize, push_edges: usize, nnz_a: usize) -> usize {
        match self {
            Product::Masked | Product::MaskedSum => prev - push_edges,
            Product::Unmasked => nnz_a,
        }
    }
}

/// What one level's kernels would have to touch — the inputs of the
/// direction decision, kept by the traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelWork {
    /// Frontier entries (the aggregate over a fused batch).
    pub frontier_nnz: usize,
    /// Positions not yet visited / settled; 0 once a fused batch has
    /// settled more than `n`.
    pub unvisited: usize,
    /// Σ out-degree of the frontier: the edges push walks.
    pub push_edges: usize,
    /// The edges pull scans ([`Product::pull_edges`]).
    pub pull_edges: usize,
}

static PUSH_LEVELS: AtomicU64 = AtomicU64::new(0);
static PULL_LEVELS: AtomicU64 = AtomicU64::new(0);
static REP_SWITCHES: AtomicU64 = AtomicU64::new(0);

/// Process-wide tallies of every [`DirectionPolicy`] decision — surfaced
/// by the serve stats/metrics expositions so operators can see the
/// crossover actually being taken under load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectionCounters {
    /// Levels that ran push.
    pub push_levels: u64,
    /// Levels that ran pull.
    pub pull_levels: u64,
    /// Frontier representation changes between consecutive levels.
    pub rep_switches: u64,
}

/// Snapshot the process-wide direction counters.
pub fn direction_counters() -> DirectionCounters {
    DirectionCounters {
        push_levels: PUSH_LEVELS.load(Ordering::Relaxed),
        pull_levels: PULL_LEVELS.load(Ordering::Relaxed),
        rep_switches: REP_SWITCHES.load(Ordering::Relaxed),
    }
}

pub(crate) fn count_rep_switch() {
    REP_SWITCHES.fetch_add(1, Ordering::Relaxed);
}

/// The per-traversal direction chooser: resolved once per call (mode,
/// residency gate, product shape), consulted once per level.
#[derive(Debug, Clone, Copy)]
pub struct DirectionPolicy {
    mode: Direction,
    pull_ready: bool,
    product: Product,
    n: usize,
    num_edges: usize,
}

impl DirectionPolicy {
    /// Build a policy for a masked solo traversal from explicit inputs.
    /// `pull_ready` is the residency gate (pull is never *chosen
    /// automatically* while it is false — forced `Pull` still runs,
    /// building and caching `Aᵀ` on its first level).
    pub fn new(mode: Direction, n: usize, num_edges: usize, pull_ready: bool) -> Self {
        DirectionPolicy {
            mode,
            pull_ready,
            product: Product::Masked,
            n,
            num_edges,
        }
    }

    /// Build a policy for a traversal over `a` on `ctx`: the residency
    /// gate is `Aᵀ` being resident in `ctx`'s transpose cache for `a`'s
    /// current version (a symmetric matrix seeded via
    /// [`Context::seed_symmetric_transpose`] passes it for free).
    pub fn for_matrix<B: Backend, T: Scalar>(
        requested: Direction,
        ctx: &Context<B>,
        a: &Matrix<T>,
    ) -> Self {
        let pull_ready = ctx.transpose_cache().contains::<T>(a.id(), a.version());
        Self::new(requested, a.nrows(), a.nnz(), pull_ready)
    }

    /// The traversal's masked product adds with a monoid that has no
    /// terminal value ([`Product::MaskedSum`]).
    pub fn masked_sum(mut self) -> Self {
        self.product = Product::MaskedSum;
        self
    }

    /// The traversal's per-level product is unmasked ([`Product::Unmasked`]).
    pub fn unmasked(mut self) -> Self {
        self.product = Product::Unmasked;
        self
    }

    /// The requested mode (forced `Push`/`Pull`, or `Auto` for per-level
    /// choice).
    pub fn mode(&self) -> Direction {
        self.mode
    }

    /// Whether the residency gate passed at policy-construction time.
    pub fn pull_ready(&self) -> bool {
        self.pull_ready
    }

    /// The per-level product this traversal runs.
    pub fn product(&self) -> Product {
        self.product
    }

    /// Vertices of the graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored edges of the graph, `nnz(A)`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The edge-cost rule: pull's scan (its edges and its `n` rows) costs
    /// less than push's walk, each side's per-dispatch overhead
    /// (nanoseconds) included.
    pub fn edge_cost_prefers_pull(
        &self,
        level: &LevelWork,
        push_overhead_ns: u64,
        pull_overhead_ns: u64,
    ) -> bool {
        let c = self.product.costs();
        let ps = |count: usize, each: u64| (count as u64).saturating_mul(each);
        let push = ps(level.push_edges, c.push_edge_ps)
            .saturating_add(push_overhead_ns.saturating_mul(1000));
        let pull = ps(level.pull_edges, c.pull_edge_ps)
            .saturating_add(ps(self.n, c.pull_row_ps))
            .saturating_add(pull_overhead_ns.saturating_mul(1000));
        pull < push
    }

    /// Decide one level from its edge totals alone: what the sequential
    /// backend decides. Traversals call [`DirectionPolicy::decide_on`] with
    /// the backend they run on and the level's vertex counts as well.
    pub fn decide(&self, push_edges: usize, pull_edges: usize) -> LevelDecision {
        let level = LevelWork {
            push_edges,
            pull_edges,
            ..LevelWork::default()
        };
        self.decide_on(&crate::backend::SeqBackend, level)
    }

    /// Decide one level on `backend`: forced modes run as forced; `Auto`
    /// pulls when `Aᵀ` is resident and [`Backend::prefers_pull`] says so.
    /// Counts the outcome in the process-wide tallies.
    pub fn decide_on<B: Backend>(&self, backend: &B, level: LevelWork) -> LevelDecision {
        self.resolve(&level, |level| backend.prefers_pull(self, level))
    }

    fn resolve(
        &self,
        level: &LevelWork,
        prefers_pull: impl FnOnce(&LevelWork) -> bool,
    ) -> LevelDecision {
        let dir = match self.mode {
            Direction::Push => ChosenDir::Push,
            Direction::Pull => ChosenDir::Pull,
            Direction::Auto if self.pull_ready && prefers_pull(level) => ChosenDir::Pull,
            Direction::Auto => ChosenDir::Push,
        };
        let rep = match dir {
            ChosenDir::Push => {
                PUSH_LEVELS.fetch_add(1, Ordering::Relaxed);
                FrontierRep::Sparse
            }
            ChosenDir::Pull => {
                PULL_LEVELS.fetch_add(1, Ordering::Relaxed);
                FrontierRep::Bitmap
            }
        };
        LevelDecision {
            dir,
            rep,
            push_edges: level.push_edges,
            pull_edges: level.pull_edges,
            pull_ready: self.pull_ready,
            device: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CudaBackend, ParBackend, SeqBackend};

    fn edges(push_edges: usize, pull_edges: usize) -> LevelWork {
        LevelWork {
            push_edges,
            pull_edges,
            ..LevelWork::default()
        }
    }

    #[test]
    fn direction_spellings_round_trip() {
        for d in [Direction::Push, Direction::Pull, Direction::Auto] {
            assert_eq!(Direction::parse(d.as_str()), Some(d));
        }
        assert_eq!(Direction::parse(" PULL "), Some(Direction::Pull));
        assert_eq!(Direction::parse("sideways"), None);
    }

    #[test]
    fn forced_modes_never_consult_the_rule() {
        let never = |_: &LevelWork| -> bool { panic!("a forced mode consulted the rule") };
        let push = DirectionPolicy::new(Direction::Push, 100, 1000, true);
        // forced pull runs even without residency (it builds Aᵀ once)
        let pull = DirectionPolicy::new(Direction::Pull, 100, 1000, false);
        for (p, q) in [(0usize, 1000usize), (1000, 0), (500, 500)] {
            let d = push.resolve(&edges(p, q), never);
            assert_eq!((d.dir, d.rep), (ChosenDir::Push, FrontierRep::Sparse));
            let d = pull.resolve(&edges(p, q), never);
            assert_eq!((d.dir, d.rep), (ChosenDir::Pull, FrontierRep::Bitmap));
        }
    }

    #[test]
    fn masked_auto_crosses_over_at_the_cost_ratio() {
        let n = 1usize << 14;
        let p = DirectionPolicy::new(Direction::Auto, n, 400_000, true);
        let c = MASKED_COSTS;
        // `even`: the most edges push walks for no more than pull's scan of
        // `pull_edges` and its n rows costs — one edge more and pull wins
        let pull_edges = 150_000usize;
        let pull_ps = pull_edges as u64 * c.pull_edge_ps + n as u64 * c.pull_row_ps;
        let even = (pull_ps / c.push_edge_ps) as usize;
        assert_eq!(p.decide(even, pull_edges).dir, ChosenDir::Push);
        assert_eq!(p.decide(even + 1, pull_edges).dir, ChosenDir::Pull);
        // the rmat14 hub level: 1 796 entries carrying 270 K edges against
        // 155 K unvisited edges — pull, whatever the vertex counts say
        let d = p.decide(270_000, 155_000);
        assert_eq!((d.dir, d.rep), (ChosenDir::Pull, FrontierRep::Bitmap));
        assert_eq!(
            (d.push_edges, d.pull_edges, d.pull_ready),
            (270_000, 155_000, true)
        );
        // a first level: one hub against the whole graph
        assert_eq!(p.decide(3_500, 396_500).dir, ChosenDir::Push);
        // a last level: a dozen edges either way, but pull still tests
        // every row's mask
        assert_eq!(p.decide(332, 14).dir, ChosenDir::Push);
    }

    #[test]
    fn masked_sum_auto_pulls_only_where_pull_scans_fewer_edges() {
        // BC's rows are folded to their end: a scanned edge costs what a
        // walked one does, so the early-exit discount must not apply
        let n = 1usize << 14;
        let bfs = DirectionPolicy::new(Direction::Auto, n, 426_000, true);
        let bc = bfs.masked_sum();
        assert_eq!(bc.product(), Product::MaskedSum);
        let c = MASKED_SUM_COSTS;
        assert!(c.pull_edge_ps >= c.push_edge_ps);
        // a median-degree source's level 3 on rmat14 (measured: push
        // 1.49 ms, pull 1.77): pull would scan more than push walks — BFS
        // stops each row early and pulls, BC pushes
        assert_eq!(bfs.decide(194_289, 230_853).dir, ChosenDir::Pull);
        assert_eq!(bc.decide(194_289, 230_853).dir, ChosenDir::Push);
        // the hubs' level 2 (measured: pull 2.4× and 1.8× faster) pulls
        for (push_edges, pull_edges) in [(342_899, 79_731), (266_431, 157_958)] {
            assert_eq!(bc.decide(push_edges, pull_edges).dir, ChosenDir::Pull);
        }
        // ... and push the first and the last
        assert_eq!(bc.decide(3_556, 422_630).dir, ChosenDir::Push);
        assert_eq!(bc.decide(332, 14).dir, ChosenDir::Push);
    }

    #[test]
    fn unmasked_auto_pulls_only_a_frontier_heavier_than_the_scan() {
        let (n, nnz) = (1usize << 14, 400_000usize);
        let c = UNMASKED_COSTS;
        assert!(
            2 * c.pull_edge_ps >= c.push_edge_ps,
            "a round carrying half of nnz(A) must never pull"
        );
        // the least frontier weight at which the scan of nnz(A) pays
        let needed = (nnz as u64 * c.pull_edge_ps + n as u64 * c.pull_row_ps) / c.push_edge_ps;
        let needed = needed as usize;
        let seq = SeqBackend;
        let (par1, par4) = (ParBackend::with_threads(1), ParBackend::with_threads(4));
        let p = DirectionPolicy::new(Direction::Auto, n, nnz, true).unmasked();
        let dirs = |w: LevelWork| {
            [
                p.decide_on(&seq, w).dir,
                p.decide_on(&par1, w).dir,
                p.decide_on(&par4, w).dir,
            ]
        };
        // pull scans all of nnz(A) however small the frontier is — and a
        // solo round never carries more than nnz(A)
        for push_edges in [1usize, 1_000, nnz / 16, nnz / 2, nnz, needed] {
            let w = LevelWork {
                frontier_nnz: push_edges / 25 + 1,
                ..edges(push_edges, nnz)
            };
            assert_eq!(dirs(w), [ChosenDir::Push; 3], "{push_edges} edges");
        }
        // only a frontier heavier than the scan would pull, and no
        // traversal consults the rule with one (a fused level pushes)
        let heavy = LevelWork {
            frontier_nnz: n,
            ..edges(needed + nnz / 4, nnz)
        };
        assert_eq!(dirs(heavy), [ChosenDir::Pull; 3]);
    }

    #[test]
    fn residency_gate_blocks_auto_pull() {
        let p = DirectionPolicy::new(Direction::Auto, 320, 1024, false);
        let d = p.decide(1000, 10);
        assert_eq!(d.dir, ChosenDir::Push);
        assert!(!d.pull_ready && !p.pull_ready());
        let cuda = p.decide_on(
            &CudaBackend::default(),
            LevelWork {
                frontier_nnz: 300,
                unvisited: 10,
                ..edges(1000, 10)
            },
        );
        assert_eq!(cuda.dir, ChosenDir::Push);
    }

    #[test]
    fn par_charges_its_fan_out_to_the_side_that_fans_out() {
        let p = DirectionPolicy::new(Direction::Auto, 1024, 14_000, true);
        // a small graph's late level: pull's 1 K-edge scan of 1 024 rows
        // (4 µs) beats push's 2.2 K-edge walk (9 µs) on seq and on one
        // worker, but not once the pull dispatch wakes a helper (5 µs) and
        // push, the sequential kernel on every backend, does not
        let w = LevelWork {
            frontier_nnz: 80,
            unvisited: 300,
            ..edges(2_200, 1_000)
        };
        assert_eq!(p.decide_on(&SeqBackend, w).dir, ChosenDir::Pull);
        assert_eq!(
            p.decide_on(&ParBackend::with_threads(1), w).dir,
            ChosenDir::Pull
        );
        assert_eq!(
            p.decide_on(&ParBackend::with_threads(2), w).dir,
            ChosenDir::Push
        );
        // against a level of real work the wake-up is nothing
        let big = LevelWork {
            frontier_nnz: 1_800,
            unvisited: 14_000,
            ..edges(270_000, 155_000)
        };
        let par2 = ParBackend::with_threads(2);
        assert_eq!(p.decide_on(&par2, big).dir, ChosenDir::Pull);
    }

    #[test]
    fn decisions_are_counted() {
        let before = direction_counters();
        let p = DirectionPolicy::new(Direction::Push, 10, 10, false);
        p.decide(1, 10);
        let after = direction_counters();
        assert!(after.push_levels > before.push_levels);
    }
}
