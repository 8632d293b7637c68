//! The execution context: a backend, its tracer, and convenience
//! constructors.

use gbtl_algebra::Scalar;
use gbtl_gpu_sim::{GpuConfig, GpuStats};
use gbtl_sparse::CooMatrix;
use gbtl_trace::{Kind, SpanFields, SpanStart, TraceContext, TraceMode, TraceReport, Tracer};

use crate::backend::{Backend, CudaBackend, ParBackend, SeqBackend, SpmvKernel};
use crate::cache::{TransposeCache, TransposeCacheStats};
use crate::types::Matrix;

/// A GraphBLAS execution context bound to one backend.
///
/// All operations are methods on the context (see the [`crate::ops`]
/// modules), so an algorithm written as `fn f<B: Backend>(ctx: &Context<B>,
/// …)` runs unchanged on every backend — the paper's headline property.
///
/// Every dispatched operation is bracketed by the context's
/// [`gbtl_trace::Tracer`]: with `GBTL_TRACE=summary|json` (or
/// [`Context::with_trace_mode`]) each op records a span — name, operand
/// dims, nnz in/out, operator label, mask/accum flags, wall duration — and
/// [`Context::trace`] returns the unified report with backend-specific
/// sections attached. In the default `off` mode the hooks are a branch on
/// a cached enum, two relaxed loads and the dispatched-op count's relaxed
/// add: no allocation, no clock reads.
#[derive(Debug)]
pub struct Context<B: Backend> {
    backend: B,
    tracer: Tracer,
    transpose_cache: TransposeCache,
}

impl Context<SeqBackend> {
    /// A context on the sequential CPU backend.
    pub fn sequential() -> Self {
        Context::with_backend(SeqBackend)
    }
}

impl Context<ParBackend> {
    /// A context on the work-stealing parallel CPU backend; thread count
    /// from `GBTL_NUM_THREADS`, else the machine's available parallelism.
    pub fn parallel() -> Self {
        Context::with_backend(ParBackend::new())
    }

    /// A parallel context pinned to exactly `threads` worker threads.
    pub fn parallel_with_threads(threads: usize) -> Self {
        Context::with_backend(ParBackend::with_threads(threads))
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.backend.threads()
    }

    /// Snapshot of the work-stealing pool's cumulative counters.
    pub fn pool_stats(&self) -> gbtl_backend_par::PoolStats {
        self.backend.pool_stats()
    }
}

impl Context<CudaBackend> {
    /// A context on the simulated-CUDA backend with the given device.
    pub fn cuda(config: GpuConfig) -> Self {
        Context::with_backend(CudaBackend::new(config))
    }

    /// A context on the default (K40-class) simulated device.
    pub fn cuda_default() -> Self {
        Context::with_backend(CudaBackend::default())
    }

    /// Force a specific SpMV kernel (experiment R-A1).
    pub fn with_spmv_kernel(self, k: SpmvKernel) -> Self {
        Context {
            backend: self.backend.with_spmv_kernel(k),
            tracer: self.tracer,
            transpose_cache: self.transpose_cache,
        }
    }

    /// Snapshot of the device statistics.
    pub fn gpu_stats(&self) -> GpuStats {
        self.backend.stats()
    }

    /// Reset the device statistics.
    pub fn reset_gpu_stats(&self) {
        self.backend.reset_stats()
    }

    /// Charge the host→device transfer of a matrix (CSR arrays).
    ///
    /// Operands are assumed device-resident during kernels; call this once
    /// per matrix to model an end-to-end run that starts with host data.
    /// Keeping operands resident across algorithm iterations — and therefore
    /// calling this once, not per call — is the transfer-avoidance design
    /// the paper's backend relies on (DESIGN.md ablation 4).
    pub fn upload_matrix<T: Scalar>(&self, m: &Matrix<T>) {
        let bytes = gbtl_backend_cuda::charge::csr_bytes(m.csr());
        self.backend.gpu().charge_transfer_bytes(bytes, true);
    }

    /// Charge the host→device transfer of a vector (dense layout).
    pub fn upload_vector<T: Scalar>(&self, v: &crate::Vector<T>) {
        let bytes = (v.len() * std::mem::size_of::<Option<T>>()) as u64;
        self.backend.gpu().charge_transfer_bytes(bytes, true);
    }

    /// Charge the device→host transfer of a result vector.
    pub fn download_vector<T: Scalar>(&self, v: &crate::Vector<T>) {
        let bytes = (v.len() * std::mem::size_of::<Option<T>>()) as u64;
        self.backend.gpu().charge_transfer_bytes(bytes, false);
    }

    /// Charge the device→host transfer of a result matrix.
    pub fn download_matrix<T: Scalar>(&self, m: &Matrix<T>) {
        let bytes = gbtl_backend_cuda::charge::csr_bytes(m.csr());
        self.backend.gpu().charge_transfer_bytes(bytes, false);
    }
}

impl<B: Backend> Context<B> {
    /// Wrap an arbitrary backend. Trace mode comes from `GBTL_TRACE`
    /// (default off); the transpose cache is a fresh enabled store.
    pub fn with_backend(backend: B) -> Self {
        let tracer = Tracer::from_env(backend.name());
        Context {
            backend,
            tracer,
            transpose_cache: TransposeCache::from_env(),
        }
    }

    /// Replace the transpose cache (builder form). `gbtl-serve` uses this
    /// to share one pre-warmed cache across every worker engine and
    /// backend; tests use it with [`TransposeCache::disabled`] for the
    /// memoization-free reference run.
    pub fn with_transpose_cache(mut self, cache: TransposeCache) -> Self {
        self.transpose_cache = cache;
        self
    }

    /// The context's transpose cache handle (shared; cloning it yields a
    /// handle to the same store).
    #[inline]
    pub fn transpose_cache(&self) -> &TransposeCache {
        &self.transpose_cache
    }

    /// Snapshot of the transpose-cache counters.
    pub fn transpose_cache_stats(&self) -> TransposeCacheStats {
        self.transpose_cache.stats()
    }

    /// Build (or refresh) `a`'s transpose in the cache so the first pull
    /// query pays nothing, and pin it there: computed transposes never
    /// evict it, it goes when `a`'s buffer does (the last handle dropped,
    /// or `a` mutated). No-op when the cache is disabled.
    pub fn prewarm_transpose<T: Scalar>(&self, a: &Matrix<T>) {
        if !self.transpose_cache.enabled() {
            return;
        }
        let _ =
            self.transpose_cache
                .get_or_build_pinned(a.id(), a.version(), &a.shared_csr(), || {
                    self.backend.transpose(a.csr())
                });
    }

    /// Prewarm the transpose cache for a matrix the *caller asserts* is
    /// symmetric (`a == aᵀ`): the matrix's own buffer is shared into the
    /// cache as its transpose, so the warm is O(1) — no counting pass, no
    /// copy — and the entry is pinned like [`Context::prewarm_transpose`]'s.
    /// Callers must hold a real symmetry guarantee (e.g. the serve
    /// catalog validates it on every install path); seeding an asymmetric
    /// matrix would silently corrupt pull-direction results. No-op when
    /// the cache is disabled.
    pub fn seed_symmetric_transpose<T: Scalar>(&self, a: &Matrix<T>) {
        self.transpose_cache
            .seed(a.id(), a.version(), &a.shared_csr());
    }

    /// The backend.
    #[inline]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The backend's name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Set the trace mode explicitly (builder form).
    pub fn with_trace_mode(mut self, mode: TraceMode) -> Self {
        self.tracer.set_mode(mode);
        self
    }

    /// Set the trace mode explicitly.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.tracer.set_mode(mode);
    }

    /// The current trace mode.
    pub fn trace_mode(&self) -> TraceMode {
        self.tracer.mode()
    }

    /// Snapshot everything the tracer recorded, with this backend's
    /// detail section (pool counters / device statistics), the
    /// transpose-cache counters, and the workspace-reuse counters attached.
    pub fn trace(&self) -> TraceReport {
        let mut sections: Vec<gbtl_trace::Section> =
            self.backend.trace_section().into_iter().collect();
        let cs = self.transpose_cache.stats();
        sections.push(gbtl_trace::Section {
            title: "transpose cache".into(),
            entries: vec![
                ("enabled".into(), cs.enabled.to_string()),
                (
                    "entries".into(),
                    format!(
                        "{}/{} computed, {} pinned",
                        cs.entries - cs.pinned,
                        cs.capacity,
                        cs.pinned
                    ),
                ),
                ("hits".into(), cs.hits.to_string()),
                ("misses".into(), cs.misses.to_string()),
                ("evictions".into(), cs.evictions.to_string()),
                ("invalidations".into(), cs.invalidations.to_string()),
                ("seeds".into(), cs.seeds.to_string()),
                ("hit rate".into(), format!("{:.1}%", cs.hit_rate() * 100.0)),
            ],
        });
        let ws = gbtl_util::workspace::stats();
        sections.push(gbtl_trace::Section {
            title: "kernel workspaces".into(),
            entries: vec![
                ("takes".into(), ws.takes.to_string()),
                ("reuses".into(), ws.reuses.to_string()),
                ("allocs".into(), ws.allocs.to_string()),
                (
                    "reuse rate".into(),
                    format!("{:.1}%", ws.reuse_rate() * 100.0),
                ),
            ],
        });
        self.tracer.report(sections)
    }

    /// Total spans recorded so far — one atomic load, where
    /// [`Context::trace`] locks and clones the whole span ring.
    pub fn total_spans(&self) -> u64 {
        self.tracer.total_spans()
    }

    /// GraphBLAS ops and traversal levels dispatched so far, counted
    /// whatever the trace mode — one atomic load. Under a recording mode
    /// (and until [`Context::clear_trace`]) it equals
    /// [`Context::total_spans`].
    pub fn dispatched_ops(&self) -> u64 {
        self.tracer.dispatched_ops()
    }

    /// Drop all recorded spans and aggregates (mode and
    /// [`Context::dispatched_ops`] are unchanged).
    pub fn clear_trace(&self) {
        self.tracer.clear();
    }

    /// Stamp the serving-layer request subsequent spans run on behalf of
    /// (clear it with `(None, None)`). gbtl-serve sets this around each
    /// query: ring spans carry the request id (a `"trace":true` answer and
    /// the JSON-lines report render it), and a sampled
    /// request's ops also land in its span tree under the `xray` parent —
    /// how that tree reaches kernel depth.
    #[inline]
    pub fn set_request(&self, request_id: Option<u64>, xray: Option<TraceContext>) {
        self.tracer.set_request(request_id, xray);
    }

    /// Set or clear the request stamp's record bit: while it is set the
    /// span ring keeps this context's ops whatever its trace mode, so a
    /// `"trace":true` query is recorded by a context that records nothing
    /// else.
    #[inline]
    pub fn set_record(&self, on: bool) {
        self.tracer.set_record(on);
    }

    /// The `(request id, tree position)` subsequent spans will carry.
    #[inline]
    pub fn request(&self) -> (Option<u64>, Option<TraceContext>) {
        self.tracer.request()
    }

    /// Open a traversal-level span (the same zero-cost-when-off contract
    /// as op spans). Close it with [`Context::level_end`].
    #[inline]
    pub fn level_start(&self) -> SpanStart {
        self.tracer.start()
    }

    /// Close a traversal-level span, recording the algorithm, the level
    /// index, and the direction decision that level ran with together with
    /// its inputs — a `level` record in the trace ring and a `level.<algo>`
    /// span-tree span carrying `dir=`/`rep=` and `push_edges=`/
    /// `pull_edges=`/`pull_ready=`, and where a device chose its charge,
    /// `device=`/`price_push_ps=`/`price_pull_ps=`.
    pub fn level_end(
        &self,
        start: SpanStart,
        algo: &'static str,
        level: u64,
        decision: crate::policy::LevelDecision,
        frontier_nnz: u64,
        nnz_out: u64,
    ) {
        self.tracer.finish(start, || {
            Kind::Level(gbtl_trace::LevelFields {
                algo,
                level,
                dir: decision.dir.as_str(),
                rep: decision.rep.as_str(),
                frontier_nnz,
                nnz_out,
                push_edges: decision.push_edges as u64,
                pull_edges: decision.pull_edges as u64,
                pull_ready: decision.pull_ready,
                device: decision.device.map(|d| gbtl_trace::DeviceFields {
                    dir: d.dir.as_str(),
                    price_push_ps: d.push_ps,
                    price_pull_ps: d.pull_ps,
                }),
            })
        });
    }

    /// Open an op span (no clock read when tracing is off and the request
    /// is neither sampled nor recorded).
    #[inline]
    pub(crate) fn span(&self) -> SpanStart {
        self.tracer.start()
    }

    /// Close an op span; `fields` runs only when the span is live.
    #[inline]
    pub(crate) fn span_end(&self, start: SpanStart, fields: impl FnOnce() -> SpanFields) {
        self.tracer.finish(start, || Kind::Op(fields()))
    }

    /// Build a matrix through the backend's `build` kernel, duplicates
    /// merged with `dup` left to right in input order — bit for bit what
    /// [`Matrix::build`] gives, on every backend.
    pub fn matrix_from_coo<T: Scalar, D: gbtl_algebra::BinaryOp<T>>(
        &self,
        coo: &CooMatrix<T>,
        dup: D,
    ) -> Matrix<T> {
        let span = self.op_span("build", gbtl_trace::short_type_name::<D>);
        let out = Matrix::from_csr(self.backend.build(coo, dup));
        let (nr, nc) = (out.nrows(), out.ncols());
        self.record(span, coo.nnz(), out.nnz(), None, false, || {
            format!("{nr}x{nc}")
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::Plus;

    #[test]
    fn contexts_construct() {
        let seq = Context::sequential();
        assert_eq!(seq.backend_name(), "sequential");
        let cuda = Context::cuda_default();
        assert_eq!(cuda.backend_name(), "cuda-sim");
        let par = Context::parallel_with_threads(3);
        assert_eq!(par.backend_name(), "parallel");
        assert_eq!(par.threads(), 3);
        assert!(Context::parallel().threads() >= 1);
    }

    #[test]
    fn upload_download_charge_transfers() {
        let ctx = Context::cuda_default();
        let m = Matrix::build(
            4,
            4,
            [(0usize, 1usize, 1.0f64)],
            gbtl_algebra::Second::new(),
        )
        .unwrap();
        ctx.upload_matrix(&m);
        let v = crate::Vector::<f64>::filled(4, 0.0);
        ctx.upload_vector(&v);
        ctx.download_vector(&v);
        ctx.download_matrix(&m);
        let s = ctx.gpu_stats();
        assert_eq!(s.h2d_transfers, 2);
        assert_eq!(s.d2h_transfers, 2);
        assert!(s.bytes_h2d > 0 && s.bytes_d2h > 0);
        assert!(s.modeled_ps > 0);
    }

    #[test]
    fn matrix_from_coo_goes_through_backend() {
        let cuda = Context::cuda_default();
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1i64);
        coo.push(0, 0, 2);
        let m = cuda.matrix_from_coo(&coo, Plus::new());
        assert_eq!(m.get(0, 0), Some(3));
        assert!(cuda.gpu_stats().kernels_launched > 0);
    }
}
