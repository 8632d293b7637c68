//! The backend trait and its three implementations.
//!
//! This is GBTL's separation of concerns: the frontend validates shapes,
//! resolves masks/descriptors and stitches accumulators; a `Backend` only
//! ever sees clean, pre-validated container-level operations. Algorithms
//! written against [`Context`](crate::Context) run unchanged on every
//! backend.

use std::cell::RefCell;

use gbtl_algebra::{BinaryOp, Monoid, Scalar, SelectOp, Semiring, UnaryOp};
use gbtl_gpu_sim::{Gpu, GpuConfig, GpuStats};
use gbtl_sparse::{CooMatrix, CsrMatrix, DenseVector, Index, SparseVector, VecMask};

use gbtl_backend_cuda::{charge, SpmvProfiles};
pub use gbtl_backend_cuda::{Device, SpmvKernel};

use crate::policy::{ChosenDir, DevicePrice, DirectionPolicy, LevelWork};

/// Container-level GraphBLAS operations, implemented per execution target.
///
/// Masks arrive pre-resolved: a vector mask is a keep test ([`VecMask`]: the
/// mask vector's own presence bits with the complement flag), a matrix mask
/// is a structural boolean CSR. Shapes are already validated.
///
/// The products are generic over their operands' value domains: a matrix
/// is read in whatever type it is stored (`D1`/`D2`), the semiring maps it
/// into the output domain `T`. There is no pattern-only twin of any kernel.
///
/// Only [`Backend::name`] is required. Every op's default body is the
/// sequential reference kernel followed by its device charge through
/// [`Backend::charge`], so the defaults *are* the contract: a backend
/// overrides the ops it has a faster kernel for and must return what the
/// default would, bit for bit; a backend that owns a simulated device
/// overrides the hook.
pub trait Backend: Send + Sync {
    /// Human-readable backend name (for reports).
    fn name(&self) -> &'static str;

    /// Backend-specific detail to attach to a [`gbtl_trace::TraceReport`]
    /// (work-stealing pool counters, simulated-device kernel statistics);
    /// `None` for backends with nothing beyond the op spans.
    fn trace_section(&self) -> Option<gbtl_trace::Section> {
        None
    }

    /// Whether an `Auto` traversal should compute this level pull rather
    /// than push on the host (`Aᵀ` is resident; forced modes never ask).
    /// The default is the edge-cost rule of [`crate::policy`] with no
    /// dispatch overhead, which seq and cuda-sim use; par adds its fan-out,
    /// so traversals stay backend-blind. What a device is charged for the
    /// level is [`Backend::level`]'s business.
    fn prefers_pull(&self, policy: &DirectionPolicy, level: &LevelWork) -> bool {
        policy.edge_cost_prefers_pull(level, 0, 0)
    }

    /// Charge the device an op's pipeline ([`gbtl_backend_cuda::charge`],
    /// priced from the operands and the result): every default op body
    /// calls it once its result is computed. The default has no device and
    /// never runs the pipeline.
    fn charge(&self, _pipeline: impl FnOnce(&Device<'_>)) {}

    /// One product with two device formulations, the one the host computes
    /// and another of the same answer (docs/adr/0012, 0016): a traversal
    /// level or a knock-out the host pushes, a triangle count's `L·L`.
    /// `host` computes it, and a backend that owns a device charges, *in
    /// place of* what `host`'s ops charge, the formulation its device
    /// prices cheaper. What `host`'s ops charge prices push, the host's;
    /// `pull` prices the other on the device it is given, from `host`'s
    /// result (false: it could not, and push is charged). Returns the
    /// result and the device's choice; the default has no device and runs
    /// `host` alone. `host` runs ops on this backend only: a device backend
    /// takes what is charged on its thread while `host` runs as push's
    /// price.
    fn level<R>(
        &self,
        host: impl FnOnce() -> R,
        _pull: impl FnOnce(&R, &Device<'_>) -> bool,
    ) -> (R, Option<DevicePrice>) {
        (host(), None)
    }

    /// `C = A ⊕.⊗ B`.
    fn mxm<T: Scalar, D1: Scalar, D2: Scalar, S: Semiring<T, D1, D2>>(
        &self,
        a: &CsrMatrix<D1>,
        b: &CsrMatrix<D2>,
        sr: S,
    ) -> CsrMatrix<T> {
        let c = gbtl_backend_seq::mxm(a, b, sr);
        self.charge(|gpu| charge::mxm(gpu, a, b, &c));
        c
    }

    /// `C<M> = A ⊕.⊗ B` over a structural mask.
    fn mxm_masked<T: Scalar, D1: Scalar, D2: Scalar, S: Semiring<T, D1, D2>>(
        &self,
        mask: &CsrMatrix<bool>,
        a: &CsrMatrix<D1>,
        b: &CsrMatrix<D2>,
        sr: S,
    ) -> CsrMatrix<T> {
        let c = gbtl_backend_seq::mxm_masked(mask, a, b, sr);
        self.charge(|gpu| charge::mxm_masked(gpu, mask, a, b, &c));
        c
    }

    /// Pull-direction `w = A ⊕.⊗ u`. Rows the mask does not keep are
    /// skipped: the result holds kept positions only (the frontend relies
    /// on it — under `replace` with no accumulator the result *is* the
    /// output). A pull's charge depends on which rows stopped early, read
    /// off the result ([`gbtl_backend_seq::early_exits`]) only on a backend
    /// that owns a device.
    fn mxv<T: Scalar, D1: Scalar, S: Semiring<T, D1, T>>(
        &self,
        a: &CsrMatrix<D1>,
        u: &DenseVector<T>,
        sr: S,
        mask: Option<VecMask<'_>>,
    ) -> DenseVector<T> {
        let w = gbtl_backend_seq::mxv(a, u, sr, mask);
        self.charge(|device| {
            if mask.is_some() {
                charge::mask_resolve(device, a.nrows());
            }
            let early = gbtl_backend_seq::early_exits(sr, a, |j| u.get(j), w.iter());
            charge::mxv::<T, D1>(device, a, mask, &early)
        });
        w
    }

    /// Push-direction `w = uᵀ ⊕.⊗ A`. Like [`Backend::mxv`], the result
    /// holds kept positions only.
    fn vxm<T: Scalar, D2: Scalar, S: Semiring<T, T, D2>>(
        &self,
        u: &SparseVector<T>,
        a: &CsrMatrix<D2>,
        sr: S,
        mask: Option<VecMask<'_>>,
    ) -> SparseVector<T> {
        let w = gbtl_backend_seq::vxm(u, a, sr, mask);
        self.charge(|gpu| charge::vxm(gpu, u, a, mask, &w));
        w
    }

    /// Union merge `C = A ⊕ B`.
    fn ewise_add_mat<T: Scalar, Op: BinaryOp<T>>(
        &self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        op: Op,
    ) -> CsrMatrix<T> {
        let c = gbtl_backend_seq::ewise_add_mat(a, b, op);
        self.charge(|gpu| charge::ewise_mat(gpu, a, b, &c));
        c
    }

    /// Intersection merge `C = A ⊗ B`.
    fn ewise_mult_mat<T: Scalar, Op: BinaryOp<T>>(
        &self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        op: Op,
    ) -> CsrMatrix<T> {
        let c = gbtl_backend_seq::ewise_mult_mat(a, b, op);
        self.charge(|gpu| charge::ewise_mat(gpu, a, b, &c));
        c
    }

    /// Union merge on sparse vectors.
    fn ewise_add_vec<T: Scalar, Op: BinaryOp<T>>(
        &self,
        u: &SparseVector<T>,
        v: &SparseVector<T>,
        op: Op,
    ) -> SparseVector<T> {
        self.charge(|gpu| charge::ewise_add_vec(gpu, u, v));
        gbtl_backend_seq::ewise_add_vec(u, v, op)
    }

    /// Intersection merge on dense vectors.
    fn ewise_mult_vec<T: Scalar, Op: BinaryOp<T>>(
        &self,
        u: &DenseVector<T>,
        v: &DenseVector<T>,
        op: Op,
    ) -> DenseVector<T> {
        self.charge(|gpu| charge::ewise_mult_vec(gpu, u));
        gbtl_backend_seq::ewise_mult_vec(u, v, op)
    }

    /// `C = f(A)` on stored values.
    fn apply_mat<A: Scalar, U: UnaryOp<A>>(&self, a: &CsrMatrix<A>, f: U) -> CsrMatrix<U::Output> {
        let c = gbtl_backend_seq::apply_mat(a, f);
        self.charge(|gpu| charge::apply_mat(gpu, a, &c));
        c
    }

    /// `w = f(u)` on a sparse vector.
    fn apply_sparse_vec<A: Scalar, U: UnaryOp<A>>(
        &self,
        u: &SparseVector<A>,
        f: U,
    ) -> SparseVector<U::Output> {
        let w = gbtl_backend_seq::apply_vec(u, f);
        self.charge(|gpu| charge::apply_sparse_vec(gpu, u, &w));
        w
    }

    /// `w = f(u)` on a dense vector.
    fn apply_dense_vec<A: Scalar, U: UnaryOp<A>>(
        &self,
        u: &DenseVector<A>,
        f: U,
    ) -> DenseVector<U::Output> {
        let w = gbtl_backend_seq::apply_dense_vec(u, f);
        self.charge(|gpu| charge::apply_dense_vec(gpu, u, &w));
        w
    }

    /// Reduce all stored entries of a matrix; `None` when empty.
    fn reduce_mat<T: Scalar, M: Monoid<T>>(&self, a: &CsrMatrix<T>, m: M) -> Option<T> {
        self.charge(|gpu| charge::reduce_mat(gpu, a));
        gbtl_backend_seq::reduce_mat(a, m)
    }

    /// Row-wise reduce `w_i = ⊕ A(i,:)`.
    fn reduce_rows<T: Scalar, M: Monoid<T>>(&self, a: &CsrMatrix<T>, m: M) -> SparseVector<T> {
        let w = gbtl_backend_seq::reduce_rows(a, m);
        self.charge(|gpu| charge::reduce_rows(gpu, a, &w));
        w
    }

    /// Reduce a dense vector's present entries; `None` when empty.
    fn reduce_dense_vec<T: Scalar, M: Monoid<T>>(&self, u: &DenseVector<T>, m: M) -> Option<T> {
        self.charge(|gpu| charge::reduce_dense_vec(gpu, u));
        gbtl_backend_seq::reduce_vec(u, m)
    }

    /// Reduce a sparse vector's stored entries; `None` when empty.
    fn reduce_sparse_vec<T: Scalar, M: Monoid<T>>(&self, u: &SparseVector<T>, m: M) -> Option<T> {
        self.charge(|gpu| charge::reduce_sparse_vec(gpu, u));
        gbtl_backend_seq::reduce_sparse_vec(u, m)
    }

    /// `C = Aᵀ`.
    fn transpose<T: Scalar>(&self, a: &CsrMatrix<T>) -> CsrMatrix<T> {
        self.charge(|gpu| charge::transpose(gpu, a));
        a.transpose()
    }

    /// Keep entries passing the predicate — GraphBLAS `select`.
    fn select_mat<T: Scalar, P: SelectOp<T>>(&self, a: &CsrMatrix<T>, op: P) -> CsrMatrix<T> {
        let c = gbtl_backend_seq::select_mat_op(a, op);
        self.charge(|gpu| charge::select_mat(gpu, a, &c));
        c
    }

    /// Keep vector entries passing the predicate (column fixed at 0).
    fn select_vec<T: Scalar, P: SelectOp<T>>(&self, u: &SparseVector<T>, op: P) -> SparseVector<T> {
        let w = gbtl_backend_seq::select_vec_op(u, op);
        self.charge(|gpu| charge::select_vec(gpu, u, &w));
        w
    }

    /// Kronecker product with an elementwise combine.
    fn kronecker<T: Scalar, Op: BinaryOp<T>>(
        &self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        mul: Op,
    ) -> CsrMatrix<T> {
        let c = gbtl_backend_seq::kronecker(a, b, mul);
        self.charge(|gpu| charge::kronecker(gpu, a, b, &c));
        c
    }

    /// Build CSR from COO triples, merging duplicates with `dup`. Every
    /// implementation folds a coordinate's values left to right in input
    /// order (the [`CooMatrix::sort_dedup`] contract), so a
    /// non-commutative `dup` or `f64` addition builds the same bits on
    /// every backend.
    fn build<T: Scalar, D: BinaryOp<T>>(&self, coo: &CooMatrix<T>, dup: D) -> CsrMatrix<T> {
        let c = gbtl_backend_seq::build(coo, dup);
        self.charge(|gpu| charge::build(gpu, coo, &c));
        c
    }

    /// `C = A(rows, cols)`.
    fn extract_mat<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        rows: &[Index],
        cols: &[Index],
    ) -> CsrMatrix<T> {
        let c = gbtl_backend_seq::extract_mat(a, rows, cols);
        self.charge(|gpu| charge::matrix_roundtrip(gpu, a, &c));
        c
    }

    /// `C(rows, cols) = A`.
    fn assign_mat<T: Scalar>(
        &self,
        c: &CsrMatrix<T>,
        a: &CsrMatrix<T>,
        rows: &[Index],
        cols: &[Index],
    ) -> CsrMatrix<T> {
        let out = gbtl_backend_seq::assign_mat(c, a, rows, cols);
        self.charge(|gpu| charge::matrix_roundtrip(gpu, c, &out));
        out
    }

    /// `w = u(indices)`.
    fn extract_vec<T: Scalar>(&self, u: &DenseVector<T>, indices: &[Index]) -> DenseVector<T> {
        let w = gbtl_backend_seq::extract_vec(u, indices);
        self.charge(|gpu| charge::vector_roundtrip(gpu, u, &w));
        w
    }

    /// `w(indices) = u`.
    fn assign_vec<T: Scalar>(
        &self,
        w: &DenseVector<T>,
        u: &DenseVector<T>,
        indices: &[Index],
    ) -> DenseVector<T> {
        let out = gbtl_backend_seq::assign_vec(w, u, indices);
        self.charge(|gpu| charge::vector_roundtrip(gpu, w, &out));
        out
    }
}

/// The sequential CPU backend.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeqBackend;

impl Backend for SeqBackend {
    fn name(&self) -> &'static str {
        "sequential"
    }
}

/// What one fanned-out `run_tasks` dispatch costs beyond its tasks: publish
/// the job, wake the parked helpers, wait for the last of them to leave.
/// A dispatch of eight empty tasks is 1.0–1.5 µs at 2 workers sharing one
/// CPU and 2.5–3.8 µs on two (the wake crosses CPUs); 6–17 µs at 4 or 8
/// workers on those two CPUs (EXPERIMENTS.md R-P20).
const PAR_FANOUT_NS: u64 = 5_000;

/// The work-stealing parallel CPU backend.
///
/// Overrides only the row-parallel kernels of `gbtl-backend-par` that
/// measured at least 1.1× seq at two threads — `mxm`, `mxm_masked`, `mxv`
/// and `reduce_rows` (EXPERIMENTS.md R-P26, ADR 0001). Every other op
/// inherits the trait's sequential default. Output is **bit-identical to
/// [`SeqBackend`]** for every op and every monoid at every thread count.
#[derive(Debug, Default, Clone)]
pub struct ParBackend {
    pool: gbtl_backend_par::ThreadPool,
}

impl ParBackend {
    /// Thread count from `GBTL_NUM_THREADS`, else `available_parallelism`.
    pub fn new() -> Self {
        Self {
            pool: gbtl_backend_par::ThreadPool::new(),
        }
    }

    /// Exactly `threads` worker threads (clamped to ≥1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            pool: gbtl_backend_par::ThreadPool::with_threads(threads),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Snapshot of the pool's cumulative execution counters.
    pub fn pool_stats(&self) -> gbtl_backend_par::PoolStats {
        self.pool.stats()
    }
}

impl Backend for ParBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn trace_section(&self) -> Option<gbtl_trace::Section> {
        let s = self.pool.stats();
        let mut entries = vec![
            ("threads".into(), s.threads.to_string()),
            (
                "dispatches".into(),
                format!(
                    "{} parallel, {} inline",
                    s.parallel_dispatches, s.inline_dispatches
                ),
            ),
            ("tasks executed".into(), s.tasks_executed.to_string()),
            ("steals".into(), s.steals.to_string()),
        ];
        for (w, busy) in s.busy_ns.iter().enumerate() {
            entries.push((
                format!("worker {w} busy"),
                format!("{:.3} ms", *busy as f64 / 1e6),
            ));
        }
        Some(gbtl_trace::Section {
            title: "work-stealing pool".into(),
            entries,
        })
    }

    /// The edge-cost rule plus [`PAR_FANOUT_NS`] on the side that fans out:
    /// `mxv`, on every call with more than one worker. Push is the
    /// sequential `vxm` and never does. The host pushes every fused level
    /// and never asks.
    fn prefers_pull(&self, policy: &DirectionPolicy, level: &LevelWork) -> bool {
        let pull_fanout = if self.threads() == 1 {
            0
        } else {
            PAR_FANOUT_NS
        };
        policy.edge_cost_prefers_pull(level, 0, pull_fanout)
    }

    fn mxm<T: Scalar, D1: Scalar, D2: Scalar, S: Semiring<T, D1, D2>>(
        &self,
        a: &CsrMatrix<D1>,
        b: &CsrMatrix<D2>,
        sr: S,
    ) -> CsrMatrix<T> {
        gbtl_backend_par::mxm(&self.pool, a, b, sr)
    }

    fn mxm_masked<T: Scalar, D1: Scalar, D2: Scalar, S: Semiring<T, D1, D2>>(
        &self,
        mask: &CsrMatrix<bool>,
        a: &CsrMatrix<D1>,
        b: &CsrMatrix<D2>,
        sr: S,
    ) -> CsrMatrix<T> {
        gbtl_backend_par::mxm_masked(&self.pool, mask, a, b, sr)
    }

    fn mxv<T: Scalar, D1: Scalar, S: Semiring<T, D1, T>>(
        &self,
        a: &CsrMatrix<D1>,
        u: &DenseVector<T>,
        sr: S,
        mask: Option<VecMask<'_>>,
    ) -> DenseVector<T> {
        gbtl_backend_par::mxv(&self.pool, a, u, sr, mask)
    }

    fn reduce_rows<T: Scalar, M: Monoid<T>>(&self, a: &CsrMatrix<T>, m: M) -> SparseVector<T> {
        gbtl_backend_par::reduce_rows(&self.pool, a, m)
    }
}

/// The simulated-CUDA backend: owns the device, an SpMV kernel policy and
/// the memo of pull-kernel charge profiles (ADR 0006). Every op is the
/// trait default, charged on the device through the `charge` hook (ADR
/// 0008); an `Auto` traversal level is charged the direction the
/// device prices cheaper through the `level` hook (docs/adr/0012).
#[derive(Debug)]
pub struct CudaBackend {
    gpu: Gpu,
    spmv_kernel: SpmvKernel,
    spmv_profiles: SpmvProfiles,
}

impl CudaBackend {
    /// Create with a device configuration and the default (auto) SpMV
    /// kernel policy.
    pub fn new(config: GpuConfig) -> Self {
        Self::on(Gpu::new(config))
    }

    /// Create with kernel tracing enabled (keeps a per-kernel log).
    pub fn with_trace(config: GpuConfig) -> Self {
        Self::on(Gpu::with_trace(config))
    }

    fn on(gpu: Gpu) -> Self {
        Self {
            gpu,
            spmv_kernel: SpmvKernel::Auto,
            spmv_profiles: SpmvProfiles::new(),
        }
    }

    /// Force a specific SpMV kernel (experiment R-A1).
    pub fn with_spmv_kernel(mut self, k: SpmvKernel) -> Self {
        self.spmv_kernel = k;
        self
    }

    /// The simulated device (for statistics and direct primitive use).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// What this backend's ops are charged on, with `gpu` as the GPU: the
    /// backend's own, or a scratch one a price is taken on.
    pub fn device<'a>(&'a self, gpu: &'a Gpu) -> Device<'a> {
        Device {
            gpu,
            spmv_kernel: self.spmv_kernel,
            spmv_profiles: &self.spmv_profiles,
        }
    }

    /// The pull-kernel charge profiles this backend's `mxv` builds and
    /// reuses.
    pub fn spmv_profiles(&self) -> &SpmvProfiles {
        &self.spmv_profiles
    }

    /// Snapshot of the device statistics.
    pub fn stats(&self) -> GpuStats {
        self.gpu.stats()
    }

    /// Reset the device statistics.
    pub fn reset_stats(&self) {
        self.gpu.reset_stats()
    }
}

impl Default for CudaBackend {
    fn default() -> Self {
        Self::new(GpuConfig::default())
    }
}

thread_local! {
    /// The scratch GPU this thread's cuda-sim charges go to while a
    /// [`Backend::level`] computes its level: the host direction's price.
    static LEVEL: RefCell<Option<Gpu>> = const { RefCell::new(None) };
}

/// Ends a level's redirection of charges when dropped, a panic included.
struct LevelRedirect;

impl Drop for LevelRedirect {
    fn drop(&mut self) {
        LEVEL.take();
    }
}

impl Backend for CudaBackend {
    fn name(&self) -> &'static str {
        "cuda-sim"
    }

    fn trace_section(&self) -> Option<gbtl_trace::Section> {
        Some(gbtl_trace::Section {
            title: "simulated device".into(),
            entries: gbtl_gpu_sim::report::stats_pairs(&self.stats()),
        })
    }

    fn charge(&self, pipeline: impl FnOnce(&Device<'_>)) {
        LEVEL.with_borrow(|level| pipeline(&self.device(level.as_ref().unwrap_or(&self.gpu))))
    }

    /// Push is priced by the host's own ops, their charges sent to a
    /// scratch GPU while `host` runs; pull is priced on a second one. The
    /// device is charged the cheaper, launch for launch.
    fn level<R>(
        &self,
        host: impl FnOnce() -> R,
        pull: impl FnOnce(&R, &Device<'_>) -> bool,
    ) -> (R, Option<DevicePrice>) {
        let redirect = LevelRedirect;
        LEVEL.set(Some(self.gpu.scratch()));
        let r = host();
        let push = LEVEL.take().expect("the level's scratch GPU").stats();
        drop(redirect);
        let priced = self.gpu.scratch();
        if !pull(&r, &self.device(&priced)) {
            self.gpu.replay(&push);
            return (r, None);
        }
        let pull = priced.stats();
        let (dir, cheaper) = if pull.modeled_time_s < push.modeled_time_s {
            (ChosenDir::Pull, &pull)
        } else {
            (ChosenDir::Push, &push)
        };
        self.gpu.replay(cheaper);
        let ns = |s: &GpuStats| (s.modeled_time_s * 1e9).round() as u64;
        let price = DevicePrice {
            dir,
            push_ns: ns(&push),
            pull_ns: ns(&pull),
        };
        (r, Some(price))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::PlusTimes;

    fn sample() -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 2);
        coo.push(1, 2, 3);
        coo.push(2, 0, 4);
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn backends_report_names() {
        assert_eq!(SeqBackend.name(), "sequential");
        assert_eq!(CudaBackend::default().name(), "cuda-sim");
        assert_eq!(ParBackend::new().name(), "parallel");
    }

    #[test]
    fn par_backend_agrees_with_seq() {
        let a = sample();
        let seq = SeqBackend.mxm(&a, &a, PlusTimes::<i64>::new());
        for threads in [1, 2, 8] {
            let par = ParBackend::with_threads(threads);
            assert_eq!(par.mxm(&a, &a, PlusTimes::<i64>::new()), seq);
            assert_eq!(par.transpose(&a), SeqBackend.transpose(&a));
        }
    }

    #[test]
    fn par_push_never_fans_out_and_its_direction_rule_charges_only_pull() {
        // 48 hubs reaching half of 4 096 vertices: ~100 K edges out of a
        // 48-entry frontier, the shape a column-split push would fan out on
        let n = 4096;
        let mut coo = CooMatrix::new(n, n);
        for h in 0..48 {
            for j in (0..n).step_by(2) {
                coo.push(h, j, (h * 31 + j) as i64 % 97 + 1);
            }
        }
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let mut u = SparseVector::new(n);
        for h in 0..48 {
            u.set(h, h as i64);
        }
        let sr = gbtl_algebra::MinPlus::<i64>::new();
        let want = SeqBackend.vxm(&u, &a, sr, None);
        let policy = DirectionPolicy::new(crate::policy::Direction::Auto, n, a.nnz(), true);
        for threads in [1, 2, 4, 8] {
            let par = ParBackend::with_threads(threads);
            assert_eq!(par.vxm(&u, &a, sr, None), want);
            let s = par.pool_stats();
            assert_eq!((s.parallel_dispatches, s.inline_dispatches), (0, 0));
            // so the rule may charge a fan-out to pull alone: one worker
            // decides as seq does, more never pull a level seq would push
            for push_edges in [16, 2_200, 98_304, 269_813, 391_959] {
                for pull_edges in [12, 1_000, 155_000, 426_186] {
                    let level = LevelWork {
                        push_edges,
                        pull_edges,
                        ..LevelWork::default()
                    };
                    let (seq, par) = (
                        SeqBackend.prefers_pull(&policy, &level),
                        par.prefers_pull(&policy, &level),
                    );
                    assert!(if threads == 1 {
                        par == seq
                    } else {
                        seq || !par
                    });
                }
            }
        }
    }

    #[test]
    fn par_inherited_ops_never_touch_the_pool() {
        use gbtl_algebra::{AdditiveInverse, Plus, PlusMonoid, Times, TriL, ValueGt};
        // three 4 096-entry blocks of everything: enough for any split
        let n = 3 * 4096;
        let mut coo = CooMatrix::new(n, n);
        let (mut ud, mut us) = (DenseVector::new(n), SparseVector::new(n));
        for i in 0..n {
            coo.push(i, (i * 7) % n, i as i64 % 13 - 6);
            coo.push(i, (i * 13 + 1) % n, i as i64 % 5 + 1);
            ud.set(i, i as i64 % 11);
            us.set(i, i as i64 % 17);
        }
        let a = CsrMatrix::from_coo(coo.clone(), |x, _| x);
        let (small, idx) = (sample(), [0, 2, 5, 4095]);
        let par = ParBackend::with_threads(4);
        let dispatches = || {
            let s = par.pool_stats();
            (s.parallel_dispatches, s.inline_dispatches)
        };
        let _ = par.transpose(&a);
        let _ = par.ewise_add_mat(&a, &a, Plus::<i64>::new());
        let _ = par.ewise_mult_mat(&a, &a, Times::<i64>::new());
        let _ = par.ewise_add_vec(&us, &us, Plus::<i64>::new());
        let _ = par.ewise_mult_vec(&ud, &ud, Times::<i64>::new());
        let _ = par.apply_mat(&a, AdditiveInverse::<i64>::new());
        let _ = par.apply_sparse_vec(&us, AdditiveInverse::<i64>::new());
        let _ = par.apply_dense_vec(&ud, AdditiveInverse::<i64>::new());
        let _ = par.reduce_mat(&a, PlusMonoid::<i64>::new());
        let _ = par.reduce_dense_vec(&ud, PlusMonoid::<i64>::new());
        let _ = par.reduce_sparse_vec(&us, PlusMonoid::<i64>::new());
        let _ = par.select_mat(&a, TriL);
        let _ = par.select_vec(&us, ValueGt(3));
        let _ = par.kronecker(&small, &small, Times::<i64>::new());
        let _ = par.build(&coo, Plus::<i64>::new());
        let _ = par.extract_mat(&a, &idx, &idx);
        let _ = par.assign_mat(&a, &par.extract_mat(&a, &idx, &idx), &idx, &idx);
        let _ = par.extract_vec(&ud, &idx);
        let _ = par.assign_vec(&ud, &par.extract_vec(&ud, &idx), &idx);
        assert_eq!(dispatches(), (0, 0), "an inherited op dispatched");
        // the same operands are big enough for a kept kernel to fan out
        let _ = par.mxv(&a, &ud, PlusTimes::<i64>::new(), None);
        assert_eq!(dispatches(), (1, 0));
    }

    /// A backend that overrides only the hook, counting its calls.
    #[derive(Default)]
    struct Counting(std::sync::atomic::AtomicUsize);

    impl Backend for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn charge(&self, pipeline: impl FnOnce(&Device<'_>)) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let profiles = SpmvProfiles::new();
            pipeline(&Device {
                gpu: &Gpu::default(),
                spmv_kernel: SpmvKernel::Auto,
                spmv_profiles: &profiles,
            });
        }
    }

    #[test]
    fn every_default_op_charges_once() {
        use gbtl_algebra::{AdditiveInverse, Plus, PlusMonoid, Times, TriL, ValueGt};
        let be = Counting::default();
        let a = sample();
        let mask = CsrMatrix::from_coo(CooMatrix::new(3, 3), |x: bool, _| x);
        let (ud, us) = (
            DenseVector::filled(3, 2i64),
            DenseVector::filled(3, 5i64).to_sparse(),
        );
        let mut coo = CooMatrix::new(3, 3);
        coo.push(1, 1, 4i64);
        let (idx, mut keep) = ([0, 2], DenseVector::new(3));
        keep.set(0, true);
        keep.set(2, true);
        let keep = VecMask::new(&keep, false);
        let ops: [&dyn Fn(); 24] = [
            &|| drop(be.mxm(&a, &a, PlusTimes::<i64>::new())),
            &|| drop(be.mxm_masked(&mask, &a, &a, PlusTimes::<i64>::new())),
            &|| drop(be.vxm(&us, &a, PlusTimes::<i64>::new(), Some(keep))),
            &|| drop(be.mxv(&a, &ud, PlusTimes::<i64>::new(), Some(keep))),
            &|| drop(be.ewise_add_mat(&a, &a, Plus::<i64>::new())),
            &|| drop(be.ewise_mult_mat(&a, &a, Times::<i64>::new())),
            &|| drop(be.ewise_add_vec(&us, &us, Plus::<i64>::new())),
            &|| drop(be.ewise_mult_vec(&ud, &ud, Times::<i64>::new())),
            &|| drop(be.apply_mat(&a, AdditiveInverse::<i64>::new())),
            &|| drop(be.apply_sparse_vec(&us, AdditiveInverse::<i64>::new())),
            &|| drop(be.apply_dense_vec(&ud, AdditiveInverse::<i64>::new())),
            &|| {
                be.reduce_mat(&a, PlusMonoid::<i64>::new());
            },
            &|| drop(be.reduce_rows(&a, PlusMonoid::<i64>::new())),
            &|| {
                be.reduce_dense_vec(&ud, PlusMonoid::<i64>::new());
            },
            &|| {
                be.reduce_sparse_vec(&us, PlusMonoid::<i64>::new());
            },
            &|| drop(be.transpose(&a)),
            &|| drop(be.select_mat(&a, TriL)),
            &|| drop(be.select_vec(&us, ValueGt(3))),
            &|| drop(be.kronecker(&a, &a, Times::<i64>::new())),
            &|| drop(be.build(&coo, Plus::<i64>::new())),
            &|| drop(be.extract_mat(&a, &idx, &idx)),
            &|| drop(be.assign_mat(&a, &be.extract_mat(&a, &idx, &idx), &idx, &idx)),
            &|| drop(be.extract_vec(&ud, &idx)),
            &|| drop(be.assign_vec(&ud, &be.extract_vec(&ud, &idx), &idx)),
        ];
        let calls = || be.0.load(std::sync::atomic::Ordering::Relaxed);
        for (i, op) in ops.iter().enumerate() {
            let before = calls();
            op();
            // assign charges the extract that built its operand as well
            let want = if i == 21 || i == 23 { 2 } else { 1 };
            assert_eq!(calls() - before, want, "op {i}");
        }
    }

    #[test]
    fn backends_agree_on_mxm() {
        let a = sample();
        let seq = SeqBackend.mxm(&a, &a, PlusTimes::<i64>::new());
        let cuda = CudaBackend::default().mxm(&a, &a, PlusTimes::<i64>::new());
        assert_eq!(seq, cuda);
    }

    #[test]
    fn cuda_masked_mxm_agrees_with_seq() {
        let a = sample();
        let mut mcoo = CooMatrix::new(3, 3);
        mcoo.push(0, 2, true);
        mcoo.push(2, 1, true);
        let mask = CsrMatrix::from_coo(mcoo, |x, _| x);
        let seq = SeqBackend.mxm_masked(&mask, &a, &a, PlusTimes::<i64>::new());
        let cuda = CudaBackend::default().mxm_masked(&mask, &a, &a, PlusTimes::<i64>::new());
        assert_eq!(seq, cuda);
    }

    #[test]
    fn cuda_stats_accumulate_and_reset() {
        let be = CudaBackend::default();
        let a = sample();
        let _ = be.transpose(&a);
        assert!(be.stats().kernels_launched > 0);
        be.reset_stats();
        assert_eq!(be.stats().kernels_launched, 0);
    }
}
