//! Model-identity golden test: the simulated device's **modeled** statistics
//! for a fixed device suite, recorded once and compared exactly.
//!
//! The simulator has two clocks. The modeled one (`GpuStats`, `kernel_log`)
//! is the reproduction's result; the host one is only what computing it
//! costs. A change meant to make the simulator cheaper to run must leave
//! every modeled number where it was, so the numbers below are constants:
//! per step the full `GpuStats` (kernels, warp instructions, memory
//! transactions, atomics, PCIe bytes and counts, modeled time rounded to
//! ns), and over the whole suite the per-kernel-name `kernel_log` totals.
//!
//! When a PR changes the *model* on purpose, the failing assertion prints
//! the new report; paste it over the constant and say so in the PR.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gbtl::algebra::{
    AdditiveInverse, Min, MinPlus, Plus, PlusMonoid, PlusTimes, Times, TriL, ValueGe,
};
use gbtl::algorithms::pagerank::PageRankOptions;
use gbtl::algorithms::{
    adjacency, bfs_levels, connected_components, maximal_independent_set, pagerank, sssp,
    triangle_count, tril, triu,
};
use gbtl::backend_cuda as cuda;
use gbtl::gpu_sim::{GpuStats, KernelRecord};
use gbtl::graphgen::{grid_2d, symmetrize, weights, Rmat};
use gbtl::prelude::*;
use gbtl::sparse::{CooMatrix, CsrMatrix, DenseVector, SparseVector, VecMask};

fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

fn stats_line(s: &GpuStats) -> String {
    format!(
        "kernels={} warp={} txn={} atomics={} h2d={}B/{} d2h={}B/{} ns={}",
        s.kernels_launched,
        s.warp_instructions,
        s.mem_transactions,
        s.atomic_ops,
        s.bytes_h2d,
        s.h2d_transfers,
        s.bytes_d2h,
        s.d2h_transfers,
        ns(s.modeled_time_s)
    )
}

/// Per-kernel-name totals: launches, blocks, warp instructions, memory
/// transactions, atomics, modeled seconds.
#[derive(Default)]
struct KernelTotals {
    counts: [u64; 5],
    seconds: f64,
}

struct Suite {
    ctx: Context<CudaBackend>,
    report: String,
    kernels: BTreeMap<&'static str, KernelTotals>,
}

impl Suite {
    fn new() -> Self {
        Suite {
            ctx: Context::with_backend(CudaBackend::with_trace(GpuConfig::k40())),
            report: String::new(),
            kernels: BTreeMap::new(),
        }
    }

    /// Run one step on a zeroed device and record what it was charged.
    fn step(&mut self, name: &str, f: impl FnOnce(&Context<CudaBackend>)) {
        self.ctx.reset_gpu_stats();
        f(&self.ctx);
        let s = self.ctx.gpu_stats();
        writeln!(self.report, "{name}: {}", stats_line(&s)).unwrap();
        for KernelRecord {
            name,
            blocks,
            tally,
            modeled_time_s,
        } in &s.kernel_log
        {
            let t = self.kernels.entry(name).or_default();
            let add = [
                1,
                *blocks as u64,
                tally.warp_instructions,
                tally.mem_transactions,
                tally.atomic_ops,
            ];
            for (dst, src) in t.counts.iter_mut().zip(add) {
                *dst += src;
            }
            t.seconds += modeled_time_s;
        }
    }

    fn finish(mut self) -> String {
        for (name, t) in &self.kernels {
            let [n, blocks, warp, txn, atomics] = t.counts;
            writeln!(
                self.report,
                "  {name}: n={n} blocks={blocks} warp={warp} txn={txn} atomics={atomics} ns={}",
                ns(t.seconds)
            )
            .unwrap();
        }
        self.report
    }
}

/// The fixed device suite over one undirected structure and one directed
/// one (for the transposes that are not the identity).
fn device_suite(structure: &CooMatrix<bool>, directed: &CooMatrix<bool>, seed: u64) -> String {
    let n = structure.nrows();
    let a = adjacency(structure.clone());
    let d = adjacency(directed.clone());
    let (weighted, w) = weighted(structure, seed);
    let src = (0..n)
        .max_by_key(|&i| (a.csr().row_nnz(i), std::cmp::Reverse(i)))
        .unwrap();
    let desc = Descriptor::new();

    let mut suite = Suite::new();
    suite.step("upload", |ctx| {
        ctx.upload_matrix(&a);
        ctx.upload_matrix(&w);
    });
    suite.step("prewarm_transpose", |ctx| {
        ctx.prewarm_transpose(&a);
        ctx.prewarm_transpose(&w);
    });
    for dir in [Direction::Auto, Direction::Push, Direction::Pull] {
        suite.step(&format!("bfs_levels/{dir:?}"), |ctx| {
            let levels = bfs_levels(ctx, &a, src, dir).unwrap();
            ctx.download_vector(&levels);
        });
    }
    suite.step("sssp", |ctx| {
        let dist = sssp(ctx, &w, src).unwrap();
        ctx.download_vector(&dist);
    });
    suite.step("pagerank/5", |ctx| {
        let opts = PageRankOptions {
            damping: 0.85,
            tolerance: 0.0,
            max_iters: 5,
        };
        let (ranks, iters) = pagerank(ctx, &d, opts).unwrap();
        assert_eq!(iters, 5);
        ctx.download_vector(&ranks);
    });
    suite.step("triangle_count", |ctx| {
        triangle_count(ctx, &a).unwrap();
    });
    suite.step("connected_components", |ctx| {
        connected_components(ctx, &a).unwrap();
    });
    suite.step("mis", |ctx| {
        maximal_independent_set(ctx, &a, seed).unwrap();
    });
    let (lower, upper) = (tril(&w).unwrap(), triu(&w).unwrap());
    suite.step("ewise_add_mat", |ctx| {
        let mut c = Matrix::new(n, n);
        ctx.ewise_add_mat(&mut c, None, no_accum(), Plus::new(), &lower, &w, &desc)
            .unwrap();
    });
    suite.step("ewise_mult_mat", |ctx| {
        let mut c = Matrix::new(n, n);
        ctx.ewise_mult_mat(&mut c, None, no_accum(), Times::new(), &w, &upper, &desc)
            .unwrap();
    });
    suite.step("select_mat", |ctx| {
        ctx.select_mat_new(TriL, &w);
    });
    suite.step("mxm", |ctx| {
        let mut c = Matrix::new(n, n);
        ctx.mxm(&mut c, None, no_accum(), MinPlus::new(), &lower, &w, &desc)
            .unwrap();
    });
    // called on the backend directly: the context would answer from the
    // transpose cache PageRank filled
    suite.step("transpose", |ctx| {
        ctx.backend().transpose(d.csr());
    });
    suite.step("build_csr", |ctx| {
        ctx.backend().build(&weighted, Min::<u32>::new());
    });
    suite.step("reduce_rows", |ctx| {
        ctx.backend().reduce_rows(w.csr(), PlusMonoid::<u32>::new());
    });
    let (sparse_lo, sparse_hi) = (sparse_stride(n, 3), sparse_stride(n, 5));
    suite.step("ewise_add_vec", |ctx| {
        ctx.backend()
            .ewise_add_vec(&sparse_lo, &sparse_hi, Plus::<i64>::new());
    });
    suite.step("select_vec", |ctx| {
        ctx.backend().select_vec(&sparse_lo, ValueGe(n as i64 / 2));
    });

    // the SpMV kernels' charges, with the mask resolved by the caller
    let wi: Matrix<i64> = as_i64(&w);
    let csr = wi.csr();
    let mut keep = DenseVector::new(n);
    (0..n)
        .filter(|i| i % 3 != 0)
        .for_each(|i| keep.set(i, true));
    let pull = |ctx: &Context<CudaBackend>, kernel, mask: Option<VecMask<'_>>| {
        let be = ctx.backend();
        let device = cuda::Device {
            spmv_kernel: kernel,
            ..be.device(be.gpu())
        };
        // (+, ×) has no terminal value: every kept row walks to its end
        cuda::charge::mxv::<i64, i64>(&device, csr, mask, &[]);
    };
    for kernel in [SpmvKernel::Scalar, SpmvKernel::Vector] {
        suite.step(&format!("mxv/{kernel:?}"), |ctx| pull(ctx, kernel, None));
        suite.step(&format!("mxv/{kernel:?}/masked"), |ctx| {
            pull(ctx, kernel, Some(VecMask::new(&keep, false)))
        });
    }
    for (step, kernel) in [("mxv_ell", SpmvKernel::Ell), ("mxv_hyb", SpmvKernel::Hyb)] {
        suite.step(step, |ctx| pull(ctx, kernel, None));
        suite.step(&format!("{step}/masked"), |ctx| {
            pull(ctx, kernel, Some(VecMask::new(&keep, false)))
        });
    }
    suite.finish()
}

/// Every `Backend` op [`device_suite`] does not reach, called on the
/// backend as a context calls it. A suite of its own, so the per-kernel
/// totals above keep their lines.
fn override_suite(structure: &CooMatrix<bool>, seed: u64) -> String {
    let n = structure.nrows();
    let a = adjacency(structure.clone());
    let (_, w) = weighted(structure, seed);
    let (lower, wi) = (tril(&w).unwrap(), as_i64(&w));
    let (sparse_lo, sparse_hi) = (sparse_stride(n, 3), sparse_stride(n, 5));
    let (dense_lo, dense_hi) = (sparse_lo.to_dense(), sparse_hi.to_dense());
    let idx: Vec<usize> = (0..n).step_by(7).collect();
    let patch = gbtl::backend_seq::extract_mat(w.csr(), &idx, &idx);
    let upatch = gbtl::backend_seq::extract_vec(&dense_hi, &idx);
    let mut kcoo = CooMatrix::new(2, 3);
    for (i, j, v) in [(0, 1, 2u32), (1, 0, 3), (1, 2, 5)] {
        kcoo.push(i, j, v);
    }
    let k = CsrMatrix::from_coo(kcoo, |x, _| x);

    let mut suite = Suite::new();
    suite.step("mxm_masked", |ctx| {
        let _: CsrMatrix<u32> =
            ctx.backend()
                .mxm_masked(a.csr(), lower.csr(), w.csr(), PlusTimes::new());
    });
    suite.step("apply_mat", |ctx| {
        ctx.backend()
            .apply_mat(wi.csr(), AdditiveInverse::<i64>::new());
    });
    suite.step("apply_sparse_vec", |ctx| {
        ctx.backend()
            .apply_sparse_vec(&sparse_lo, AdditiveInverse::<i64>::new());
    });
    suite.step("apply_dense_vec", |ctx| {
        ctx.backend()
            .apply_dense_vec(&dense_lo, AdditiveInverse::<i64>::new());
    });
    suite.step("reduce_mat", |ctx| {
        ctx.backend().reduce_mat(w.csr(), PlusMonoid::<u32>::new());
    });
    suite.step("reduce_dense_vec", |ctx| {
        ctx.backend()
            .reduce_dense_vec(&dense_lo, PlusMonoid::<i64>::new());
    });
    suite.step("reduce_sparse_vec", |ctx| {
        ctx.backend()
            .reduce_sparse_vec(&sparse_lo, PlusMonoid::<i64>::new());
    });
    suite.step("ewise_mult_vec", |ctx| {
        ctx.backend()
            .ewise_mult_vec(&dense_lo, &dense_hi, Times::<i64>::new());
    });
    suite.step("kronecker", |ctx| {
        ctx.backend().kronecker(&k, w.csr(), Times::<u32>::new());
    });
    suite.step("extract_mat", |ctx| {
        ctx.backend().extract_mat(w.csr(), &idx, &idx);
    });
    suite.step("assign_mat", |ctx| {
        ctx.backend().assign_mat(w.csr(), &patch, &idx, &idx);
    });
    suite.step("extract_vec", |ctx| {
        ctx.backend().extract_vec(&dense_hi, &idx);
    });
    suite.step("assign_vec", |ctx| {
        ctx.backend().assign_vec(&dense_lo, &upatch, &idx);
    });
    suite.finish()
}

/// The structure's seeded symmetric `u32` weights, and their matrix with
/// the self-loops dropped.
fn weighted(structure: &CooMatrix<bool>, seed: u64) -> (CooMatrix<u32>, Matrix<u32>) {
    let n = structure.nrows();
    let triples = weights::uniform_u32_symmetric(structure, 1, 100, seed);
    let w = Matrix::build(n, n, triples.iter().filter(|&(i, j, _)| i != j), Min::new()).unwrap();
    (triples, w)
}

/// Every `stride`-th index present, valued by its index.
fn sparse_stride(n: usize, stride: usize) -> SparseVector<i64> {
    let idx: Vec<usize> = (0..n).step_by(stride).collect();
    let vals = idx.iter().map(|&i| i as i64).collect();
    SparseVector::from_sorted(n, idx, vals).unwrap()
}

/// `u32` weights as `i64` (ELL/HYB kernels take one scalar type throughout).
fn as_i64(w: &Matrix<u32>) -> Matrix<i64> {
    Matrix::build(
        w.nrows(),
        w.ncols(),
        w.iter().map(|(i, j, v)| (i, j, v as i64)),
        Min::new(),
    )
    .unwrap()
}

fn assert_golden(name: &str, actual: &str, golden: &str) {
    let golden = golden.trim_start_matches('\n');
    for (line, (got, want)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got, want,
            "{name}: modeled statistics moved at line {line}; full report:\n{actual}"
        );
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{name}: report length changed; full report:\n{actual}"
    );
}

#[test]
fn rmat10_device_suite_is_bit_identical() {
    let directed = Rmat::new(10, 8).seed(7).generate();
    let report = device_suite(&symmetrize(&directed), &directed, 7);
    assert_golden("rmat10", &report, RMAT10);
}

#[test]
fn grid16_device_suite_is_bit_identical() {
    let grid = grid_2d(16, 16);
    // the grid stores both directions; keep the forward edges as the
    // directed operand
    let mut forward = CooMatrix::new(256, 256);
    for (i, j, v) in grid.iter().filter(|&(i, j, _)| i < j) {
        forward.push(i, j, v);
    }
    let report = device_suite(&grid, &forward, 11);
    assert_golden("grid16", &report, GRID16);
}

#[test]
fn rmat10_override_suite_is_bit_identical() {
    let directed = Rmat::new(10, 8).seed(7).generate();
    let report = override_suite(&symmetrize(&directed), 7);
    assert_golden("rmat10 overrides", &report, RMAT10_OVERRIDES);
}

#[test]
fn grid16_override_suite_is_bit_identical() {
    let report = override_suite(&grid_2d(16, 16), 11);
    assert_golden("grid16 overrides", &report, GRID16_OVERRIDES);
}

/// Everything a step charged: the `GpuStats` line and every launch.
fn charged(ctx: &Context<CudaBackend>, f: impl FnOnce(&Context<CudaBackend>)) -> String {
    ctx.reset_gpu_stats();
    f(ctx);
    let s = ctx.gpu_stats();
    let mut out = stats_line(&s);
    for k in &s.kernel_log {
        write!(
            out,
            "\n{} {} {:?} {}",
            k.name,
            k.blocks,
            k.tally,
            ns(k.modeled_time_s)
        )
        .unwrap();
    }
    out
}

fn traced_cuda() -> Context<CudaBackend> {
    Context::with_backend(CudaBackend::with_trace(GpuConfig::k40()))
}

/// A pull is charged from a profile its structure's first pull builds: the
/// run that builds it and every run after charge the same.
#[test]
fn a_profile_hit_charges_what_the_build_charged() {
    let directed = Rmat::new(10, 8).seed(7).generate();
    let structure = symmetrize(&directed);
    let a = adjacency(structure.clone());
    let d = adjacency(directed);
    let (_, w) = weighted(&structure, 7);
    let opts = PageRankOptions {
        damping: 0.85,
        tolerance: 0.0,
        max_iters: 5,
    };
    let ctx = traced_cuda();
    ctx.prewarm_transpose(&a);
    ctx.prewarm_transpose(&d);
    ctx.prewarm_transpose(&w);
    let solve = |ctx: &Context<CudaBackend>| {
        bfs_levels(ctx, &a, 0, Direction::Pull).unwrap();
        sssp(ctx, &w, 0).unwrap();
        pagerank(ctx, &d, opts).unwrap();
    };
    let built = charged(&ctx, solve);
    let held = ctx.backend().spmv_profiles().held();
    assert!(held > 0, "the solves pulled without a profile");
    assert!(built.contains("spmv_csr_"), "the solves pulled nothing");
    assert_eq!(
        charged(&ctx, solve),
        built,
        "a profile hit charged differently"
    );
    assert_eq!(ctx.backend().spmv_profiles().held(), held);
}

/// Two structures of one shape and one entry count, pulled in turn on one
/// backend, are each charged what a fresh backend charges them.
#[test]
fn equal_shapes_never_share_a_profile() {
    let grid = grid_2d(16, 16);
    let n = grid.nrows();
    // the same grid relabelled `i → 97·i mod n` (97 is coprime to 256)
    let mut relabelled = CooMatrix::new(n, n);
    for (i, j, v) in grid.iter() {
        relabelled.push(97 * i % n, 97 * j % n, v);
    }
    let (a, b) = (adjacency(grid), adjacency(relabelled));
    assert_eq!((a.nrows(), a.nnz()), (b.nrows(), b.nnz()));
    assert_ne!(a.csr(), b.csr());
    // every context holds both transposes, so only a profile could differ
    let warm = |ctx: Context<CudaBackend>| {
        ctx.prewarm_transpose(&a);
        ctx.prewarm_transpose(&b);
        ctx
    };
    fn pull(m: &Matrix<bool>) -> impl FnOnce(&Context<CudaBackend>) + '_ {
        move |ctx| {
            bfs_levels(ctx, m, 0, Direction::Pull).unwrap();
            connected_components(ctx, m).unwrap();
        }
    }
    let shared = warm(traced_cuda());
    for round in 0..2 {
        for m in [&a, &b] {
            let fresh = charged(&warm(traced_cuda()), pull(m));
            assert_eq!(charged(&shared, pull(m)), fresh, "round {round}");
        }
    }
}

const RMAT10_OVERRIDES: &str = "
mxm_masked: kernels=13 warp=89718 txn=253651 atomics=12340 h2d=0B/0 d2h=0B/0 ns=199672
apply_mat: kernels=1 warp=772 txn=1544 atomics=0 h2d=0B/0 d2h=0B/0 ns=5686
apply_sparse_vec: kernels=1 warp=22 txn=44 atomics=0 h2d=0B/0 d2h=0B/0 ns=5020
apply_dense_vec: kernels=1 warp=64 txn=256 atomics=0 h2d=0B/0 d2h=0B/0 ns=5114
reduce_mat: kernels=1 warp=772 txn=387 atomics=0 h2d=0B/0 d2h=0B/0 ns=5172
reduce_dense_vec: kernels=1 warp=64 txn=129 atomics=0 h2d=0B/0 d2h=0B/0 ns=5057
reduce_sparse_vec: kernels=1 warp=22 txn=23 atomics=0 h2d=0B/0 d2h=0B/0 ns=5010
ewise_mult_vec: kernels=1 warp=96 txn=384 atomics=0 h2d=0B/0 d2h=0B/0 ns=5171
kronecker: kernels=1 warp=4628 txn=4629 atomics=0 h2d=0B/0 d2h=0B/0 ns=7057
extract_mat: kernels=0 warp=0 txn=0 atomics=0 h2d=4448B/1 d2h=156280B/1 ns=33394
assign_mat: kernels=0 warp=0 txn=0 atomics=0 h2d=156280B/1 d2h=156280B/1 ns=46047
extract_vec: kernels=0 warp=0 txn=0 atomics=0 h2d=2352B/1 d2h=16384B/1 ns=21561
assign_vec: kernels=0 warp=0 txn=0 atomics=0 h2d=16384B/1 d2h=16384B/1 ns=22731
  expand_row_ids: n=2 blocks=2 warp=836 txn=1674 atomics=0 ns=10744
  histogram: n=1 blocks=4 warp=772 txn=836 atomics=12340 ns=27309
  kronecker_expand: n=1 blocks=12 warp=4628 txn=4629 atomics=0 ns=7057
  radix_sort_pass: n=4 blocks=16 warp=6176 txn=9256 atomics=0 ns=24114
  reduce: n=3 blocks=6 warp=858 txn=539 atomics=0 ns=15240
  scan_downsweep: n=1 blocks=1 warp=64 txn=128 atomics=0 ns=5057
  scan_upsweep: n=1 blocks=1 warp=32 txn=64 atomics=0 ns=5028
  spgemm_masked_dot: n=1 blocks=49 warp=79522 txn=236290 atomics=0 ns=110018
  transform: n=5 blocks=14 warp=2402 txn=4932 atomics=0 ns=27192
  transpose_keys: n=1 blocks=49 warp=772 txn=2315 atomics=0 ns=6029
  zip_transform: n=1 blocks=1 warp=96 txn=384 atomics=0 ns=5171
";

const GRID16_OVERRIDES: &str = "
mxm_masked: kernels=13 warp=2124 txn=2708 atomics=960 h2d=0B/0 d2h=0B/0 ns=67910
apply_mat: kernels=1 warp=60 txn=120 atomics=0 h2d=0B/0 d2h=0B/0 ns=5053
apply_sparse_vec: kernels=1 warp=6 txn=12 atomics=0 h2d=0B/0 d2h=0B/0 ns=5005
apply_dense_vec: kernels=1 warp=16 txn=64 atomics=0 h2d=0B/0 d2h=0B/0 ns=5028
reduce_mat: kernels=1 warp=60 txn=31 atomics=0 h2d=0B/0 d2h=0B/0 ns=5014
reduce_dense_vec: kernels=1 warp=16 txn=33 atomics=0 h2d=0B/0 d2h=0B/0 ns=5015
reduce_sparse_vec: kernels=1 warp=6 txn=7 atomics=0 h2d=0B/0 d2h=0B/0 ns=5003
ewise_mult_vec: kernels=1 warp=24 txn=96 atomics=0 h2d=0B/0 d2h=0B/0 ns=5043
kronecker: kernels=1 warp=360 txn=361 atomics=0 h2d=0B/0 d2h=0B/0 ns=5160
extract_mat: kernels=0 warp=0 txn=0 atomics=0 h2d=304B/1 d2h=13576B/1 ns=21157
assign_mat: kernels=0 warp=0 txn=0 atomics=0 h2d=13576B/1 d2h=13576B/1 ns=22263
extract_vec: kernels=0 warp=0 txn=0 atomics=0 h2d=592B/1 d2h=4096B/1 ns=20391
assign_vec: kernels=0 warp=0 txn=0 atomics=0 h2d=4096B/1 d2h=4096B/1 ns=20683
  expand_row_ids: n=2 blocks=2 warp=76 txn=154 atomics=0 ns=10068
  histogram: n=1 blocks=1 warp=60 txn=76 atomics=960 ns=6740
  kronecker_expand: n=1 blocks=3 warp=360 txn=361 atomics=0 ns=5160
  radix_sort_pass: n=4 blocks=4 warp=480 txn=720 atomics=0 ns=20320
  reduce: n=3 blocks=3 warp=82 txn=71 atomics=0 ns=15032
  scan_downsweep: n=1 blocks=1 warp=16 txn=32 atomics=0 ns=5014
  scan_upsweep: n=1 blocks=1 warp=8 txn=16 atomics=0 ns=5007
  spgemm_masked_dot: n=1 blocks=4 warp=1304 txn=1290 atomics=0 ns=5573
  transform: n=5 blocks=5 warp=202 txn=436 atomics=0 ns=25194
  transpose_keys: n=1 blocks=4 warp=60 txn=180 atomics=0 ns=5080
  zip_transform: n=1 blocks=1 warp=24 txn=96 atomics=0 ns=5043
";

const RMAT10: &str = "
upload: kernels=0 warp=0 txn=0 atomics=0 h2d=275540B/2 d2h=0B/0 ns=42962
prewarm_transpose: kernels=22 warp=19556 txn=30736 atomics=24680 h2d=0B/0 d2h=0B/0 ns=167536
bfs_levels/Auto: kernels=8 warp=16972 txn=9885 atomics=0 h2d=0B/0 d2h=16384B/1 ns=55759
bfs_levels/Push: kernels=60 warp=5690 txn=9116 atomics=0 h2d=0B/0 d2h=16384B/1 ns=315417
bfs_levels/Pull: kernels=8 warp=16972 txn=9885 atomics=0 h2d=0B/0 d2h=16384B/1 ns=55759
sssp: kernels=10 warp=113910 txn=117220 atomics=0 h2d=0B/0 d2h=8192B/1 ns=112780
pagerank/5: kernels=17 warp=62152 txn=58966 atomics=6804 h2d=0B/0 d2h=16384B/1 ns=134668
triangle_count: kernels=13 warp=27039 txn=62896 atomics=6170 h2d=0B/0 d2h=0B/0 ns=103923
connected_components: kernels=4 warp=42049 txn=40131 atomics=0 h2d=0B/0 d2h=0B/0 ns=37836
mis: kernels=11 warp=64698 txn=71118 atomics=0 h2d=0B/0 d2h=0B/0 ns=86608
ewise_add_mat: kernels=15 warp=15793 txn=29707 atomics=12340 h2d=0B/0 d2h=0B/0 ns=110141
ewise_mult_mat: kernels=15 warp=14635 txn=27777 atomics=6170 h2d=0B/0 d2h=0B/0 ns=98314
select_mat: kernels=10 warp=4760 txn=12571 atomics=6170 h2d=0B/0 d2h=0B/0 ns=66556
mxm: kernels=17 warp=497200 txn=706044 atomics=243120 h2d=0B/0 d2h=0B/0 ns=831011
transpose: kernels=11 warp=5453 txn=7986 atomics=6804 h2d=0B/0 d2h=0B/0 ns=70645
build_csr: kernels=11 warp=13149 txn=22121 atomics=12361 h2d=0B/0 d2h=0B/0 ns=86807
reduce_rows: kernels=4 warp=996 txn=660 atomics=0 h2d=0B/0 d2h=0B/0 ns=20293
ewise_add_vec: kernels=5 warp=324 txn=690 atomics=0 h2d=0B/0 d2h=0B/0 ns=25307
select_vec: kernels=3 warp=66 txn=139 atomics=0 h2d=0B/0 d2h=0B/0 ns=15062
mxv/Scalar: kernels=1 warp=11671 txn=31952 atomics=0 h2d=0B/0 d2h=0B/0 ns=19201
mxv/Scalar/masked: kernels=1 warp=9551 txn=22318 atomics=0 h2d=0B/0 d2h=0B/0 ns=14919
mxv/Vector: kernels=1 warp=11391 txn=13499 atomics=0 h2d=0B/0 d2h=0B/0 ns=11000
mxv/Vector/masked: kernels=1 warp=7629 txn=9105 atomics=0 h2d=0B/0 d2h=0B/0 ns=9047
mxv_ell: kernels=1 warp=45995 txn=53138 atomics=0 h2d=0B/0 d2h=0B/0 ns=28617
mxv_ell/masked: kernels=1 warp=45571 txn=50374 atomics=0 h2d=0B/0 d2h=0B/0 ns=27388
mxv_hyb: kernels=2 warp=2075 txn=10230 atomics=8208 h2d=0B/0 d2h=0B/0 ns=29139
mxv_hyb/masked: kernels=2 warp=2068 txn=9611 atomics=8208 h2d=0B/0 d2h=0B/0 ns=28864
  build_keys: n=1 blocks=64 warp=1022 txn=3062 atomics=0 ns=6361
  compact_flags: n=8 blocks=16 warp=2404 txn=5008 atomics=0 ns=42226
  compact_scan: n=8 blocks=16 warp=2404 txn=3006 atomics=0 ns=41336
  compact_scatter: n=8 blocks=16 warp=2404 txn=6581 atomics=0 ns=42925
  ewise_boundaries: n=2 blocks=146 warp=2316 txn=4628 atomics=0 ns=12057
  ewise_combine: n=2 blocks=146 warp=2316 txn=9256 atomics=0 ns=14114
  ewise_vec_combine: n=1 blocks=3 warp=36 txn=138 atomics=0 ns=5061
  expand_row_ids: n=12 blocks=12 warp=3898 txn=7808 atomics=0 ns=63470
  gather: n=10 blocks=12 warp=1320 txn=6811 atomics=0 ns=53027
  histogram: n=10 blocks=86 warp=20296 txn=20934 atomics=324619 ns=636404
  mask_resolve: n=15 blocks=15 warp=480 txn=240 atomics=0 ns=75107
  radix_sort_pass: n=52 blocks=688 warp=334656 txn=496728 atomics=0 ns=480768
  reduce: n=1 blocks=1 warp=252 txn=253 atomics=0 ns=5112
  reduce_by_key: n=6 blocks=149 warp=55626 txn=79577 atomics=0 ns=65368
  scan_downsweep: n=15 blocks=16 warp=1080 txn=2158 atomics=0 ns=75959
  scan_upsweep: n=15 blocks=16 warp=540 txn=1079 atomics=0 ns=75480
  segmented_reduce: n=1 blocks=1 warp=804 txn=482 atomics=0 ns=5214
  select_key: n=2 blocks=98 warp=1544 txn=9256 atomics=0 ns=14114
  spgemm_expand: n=1 blocks=25 warp=107754 txn=113097 atomics=0 ns=55265
  spgemm_masked_dot: n=1 blocks=25 warp=21802 txn=49621 atomics=0 ns=27054
  spmv_coo_overflow: n=2 blocks=66 warp=1542 txn=13492 atomics=16416 ns=45180
  spmv_csr_scalar: n=2 blocks=8 warp=21222 txn=54270 atomics=0 ns=34120
  spmv_csr_vector: n=38 blocks=152 warp=329968 txn=321647 atomics=0 ns=332954
  spmv_ell: n=4 blocks=16 warp=94167 txn=109861 atomics=0 ns=68827
  tag_keys: n=4 blocks=148 warp=2316 txn=6946 atomics=0 ns=23087
  transform: n=20 blocks=172 warp=40592 txn=81176 atomics=0 ns=136078
  transpose_keys: n=4 blocks=152 warp=2396 txn=7184 atomics=0 ns=23193
  vxm_expand: n=4 blocks=6 warp=1548 txn=2262 atomics=0 ns=21005
  zip_transform: n=5 blocks=6 warp=660 txn=1314 atomics=0 ns=25584
";

const GRID16: &str = "
upload: kernels=0 warp=0 txn=0 atomics=0 h2d=24272B/2 d2h=0B/0 ns=22023
prewarm_transpose: kernels=22 warp=1564 txn=2506 atomics=1920 h2d=0B/0 d2h=0B/0 ns=114527
bfs_levels/Auto: kernels=58 warp=3939 txn=6296 atomics=0 h2d=0B/0 d2h=4096B/1 ns=303140
bfs_levels/Push: kernels=435 warp=1552 txn=2203 atomics=0 h2d=0B/0 d2h=4096B/1 ns=2186320
bfs_levels/Pull: kernels=58 warp=3939 txn=6296 atomics=0 h2d=0B/0 d2h=4096B/1 ns=303140
sssp: kernels=29 warp=5336 txn=14848 atomics=0 h2d=0B/0 d2h=2048B/1 ns=161770
pagerank/5: kernels=17 warp=1031 txn=1941 atomics=480 h2d=0B/0 d2h=4096B/1 ns=97057
triangle_count: kernels=12 warp=1011 txn=1498 atomics=480 h2d=0B/0 d2h=0B/0 ns=61519
connected_components: kernels=31 warp=4574 txn=10995 atomics=0 h2d=0B/0 d2h=0B/0 ns=159887
mis: kernels=8 warp=1046 txn=2585 atomics=0 h2d=0B/0 d2h=0B/0 ns=41149
ewise_add_mat: kernels=15 warp=1255 txn=2378 atomics=960 h2d=0B/0 d2h=0B/0 ns=77764
ewise_mult_mat: kernels=15 warp=1165 txn=2228 atomics=480 h2d=0B/0 d2h=0B/0 ns=76844
select_mat: kernels=10 warp=392 txn=1034 atomics=480 h2d=0B/0 d2h=0B/0 ns=51313
mxm: kernels=17 warp=1941 txn=3070 atomics=1378 h2d=0B/0 d2h=0B/0 ns=88814
transpose: kernels=11 warp=407 txn=623 atomics=480 h2d=0B/0 d2h=0B/0 ns=56130
build_csr: kernels=11 warp=834 txn=1444 atomics=960 h2d=0B/0 d2h=0B/0 ns=57348
reduce_rows: kernels=4 warp=116 txn=101 atomics=0 h2d=0B/0 d2h=0B/0 ns=20045
ewise_add_vec: kernels=5 warp=90 txn=180 atomics=0 h2d=0B/0 d2h=0B/0 ns=25080
select_vec: kernels=3 warp=18 txn=37 atomics=0 h2d=0B/0 d2h=0B/0 ns=15016
mxv/Scalar: kernels=1 warp=184 txn=710 atomics=0 h2d=0B/0 d2h=0B/0 ns=5316
mxv/Scalar/masked: kernels=1 warp=184 txn=702 atomics=0 h2d=0B/0 d2h=0B/0 ns=5312
mxv/Vector: kernels=1 warp=3328 txn=1920 atomics=0 h2d=0B/0 d2h=0B/0 ns=5853
mxv/Vector/masked: kernels=1 warp=2210 txn=1274 atomics=0 h2d=0B/0 d2h=0B/0 ns=5566
mxv_ell: kernels=1 warp=168 txn=294 atomics=0 h2d=0B/0 d2h=0B/0 ns=5131
mxv_ell/masked: kernels=1 warp=168 txn=290 atomics=0 h2d=0B/0 d2h=0B/0 ns=5129
mxv_hyb: kernels=1 warp=168 txn=294 atomics=0 h2d=0B/0 d2h=0B/0 ns=5131
mxv_hyb/masked: kernels=1 warp=168 txn=290 atomics=0 h2d=0B/0 d2h=0B/0 ns=5129
  build_keys: n=1 blocks=4 warp=60 txn=180 atomics=0 ns=5080
  compact_flags: n=33 blocks=33 warp=230 txn=441 atomics=0 ns=165196
  compact_scan: n=33 blocks=33 warp=230 txn=281 atomics=0 ns=165125
  compact_scatter: n=33 blocks=33 warp=230 txn=598 atomics=0 ns=165266
  ewise_boundaries: n=2 blocks=12 warp=180 txn=360 atomics=0 ns=10160
  ewise_combine: n=2 blocks=12 warp=180 txn=720 atomics=0 ns=10320
  ewise_vec_combine: n=1 blocks=1 warp=10 txn=36 atomics=0 ns=5016
  expand_row_ids: n=12 blocks=12 warp=366 txn=744 atomics=0 ns=60331
  gather: n=60 blocks=60 warp=264 txn=792 atomics=0 ns=300352
  histogram: n=10 blocks=10 warp=478 txn=637 atomics=7618 ns=63826
  mask_resolve: n=89 blocks=89 warp=712 txn=356 atomics=0 ns=445158
  radix_sort_pass: n=152 blocks=152 warp=4816 txn=6584 atomics=0 ns=762926
  reduce_by_key: n=31 blocks=31 warp=348 txn=561 atomics=0 ns=155249
  scan_downsweep: n=40 blocks=40 warp=248 txn=440 atomics=0 ns=200196
  scan_upsweep: n=40 blocks=40 warp=124 txn=220 atomics=0 ns=200098
  segmented_reduce: n=1 blocks=1 warp=68 txn=55 atomics=0 ns=5024
  select_key: n=2 blocks=8 warp=120 txn=720 atomics=0 ns=10320
  spgemm_expand: n=1 blocks=2 warp=348 txn=460 atomics=0 ns=5204
  spgemm_masked_dot: n=1 blocks=2 warp=596 txn=417 atomics=0 ns=5185
  spmv_csr_scalar: n=132 blocks=132 warp=19346 txn=43510 atomics=0 ns=679338
  spmv_csr_vector: n=2 blocks=2 warp=5538 txn=3194 atomics=0 ns=11420
  spmv_ell: n=4 blocks=4 warp=672 txn=1168 atomics=0 ns=20519
  tag_keys: n=4 blocks=12 warp=180 txn=540 atomics=0 ns=20240
  transform: n=20 blocks=20 warp=956 txn=1908 atomics=0 ns=100848
  transpose_keys: n=4 blocks=12 warp=180 txn=540 atomics=0 ns=20240
  vxm_expand: n=29 blocks=29 warp=176 txn=410 atomics=0 ns=145182
  zip_transform: n=30 blocks=30 warp=132 txn=165 atomics=0 ns=150073
";
