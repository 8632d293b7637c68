//! The closed-form charges of the four pull SpMV kernels (CSR scalar and
//! vector, ELL, HYB) and of push `vxm` equal the per-lane narration they
//! replaced, launch for launch.
//!
//! The reference kernels below are that narration, kept here only: each
//! warp-step of the device kernel told to a `BlockCtx` as the lane indices
//! it loads (`warp_read`, `warp_read_run`, `block_reduce`), ELL's slots at
//! their column-major positions with HYB's overflow as COO triples, and
//! push built as the candidate arrays, a sort and a reduce-by-key. Every
//! device run keeps its kernel log, and the two logs — kernel name, blocks
//! and `KernelTally` of every launch — must be equal, as must the results.
//!
//! Pull is charged from its result, not from a fold: the rows that stopped
//! early are read off the product (`early_exits`), from the dense result
//! and again from its sparse form — the form a pushed level prices pull
//! from — and both charges must equal the narration's, which folds. It is
//! charged from a profile built on a structure's first use: each matrix
//! here is pulled many times through one `SpmvProfiles` memo — every
//! operand presence, mask and kernel on one device after another — so all
//! but the first call of each (kernel, device) are charged from a profile
//! another call built.

use gbtl_algebra::{BinaryOp, LorLand, MinPlus, MinSecond, PlusTimes, Scalar, Semiring};
use gbtl_backend_cuda::{charge, Device, SpmvKernel, SpmvProfiles};
use gbtl_backend_seq::{early_exits, row_dot};
use gbtl_gpu_sim::{primitives as prim, Gpu, GpuConfig, KernelRecord, KernelTally};
use gbtl_sparse::{CooMatrix, CsrMatrix, DenseVector, SparseVector, VecMask};

const BLOCK_DIM: usize = 256;

/// The thread-per-row kernel, narrated lane by lane.
fn reference_scalar<T, D1, S>(
    gpu: &Gpu,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> Vec<Option<T>>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
    let val_sz = std::mem::size_of::<D1>();
    let u_sz = std::mem::size_of::<Option<T>>();
    let mut out = vec![None; a.nrows()];
    gpu.launch_chunks("spmv_csr_scalar", &mut out, BLOCK_DIM, |b, slice, ctx| {
        let row0 = b * BLOCK_DIM;
        let ws = ctx.warp_size();
        for warp_start in (0..slice.len()).step_by(ws) {
            let warp_end = (warp_start + ws).min(slice.len());
            let rows: Vec<usize> = (row0 + warp_start..row0 + warp_end)
                .filter(|&r| mask.is_none_or(|keep| keep.keeps(r)))
                .collect();
            if rows.is_empty() {
                continue;
            }
            ctx.warp_read(8, &rows);
            ctx.warp_read(8, &rows);
            let (mut pos, mut end) = (vec![], vec![]);
            for &r in &rows {
                let (cols, vals) = a.row(r);
                let (dot, consumed) = row_dot(sr, cols, vals, u);
                slice[r - row0] = dot;
                if consumed > 0 {
                    pos.push(row_ptr[r]);
                    end.push(row_ptr[r] + consumed);
                }
            }
            while !pos.is_empty() {
                let cols: Vec<usize> = pos.iter().map(|&p| col_idx[p]).collect();
                ctx.warp_read(8, &pos);
                ctx.warp_read(val_sz, &pos);
                ctx.warp_read(u_sz, &cols);
                ctx.instr(2);
                let live: Vec<(usize, usize)> = pos
                    .iter()
                    .zip(&end)
                    .map(|(&p, &e)| (p + 1, e))
                    .filter(|&(p, e)| p < e)
                    .collect();
                (pos, end) = live.into_iter().unzip();
            }
            ctx.warp_write(u_sz, &rows);
        }
    });
    out
}

/// The warp-per-row kernel, narrated stride by stride.
fn reference_vector<T, D1, S>(
    gpu: &Gpu,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> Vec<Option<T>>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
    let val_sz = std::mem::size_of::<D1>();
    let u_sz = std::mem::size_of::<Option<T>>();
    let mut out = vec![None; a.nrows()];
    gpu.launch_chunks("spmv_csr_vector", &mut out, BLOCK_DIM, |b, slice, ctx| {
        let ws = ctx.warp_size();
        for (k, slot) in slice.iter_mut().enumerate() {
            let r = b * BLOCK_DIM + k;
            let (lo, row_end) = (row_ptr[r], row_ptr[r + 1]);
            if mask.is_some_and(|keep| !keep.keeps(r)) || lo == row_end {
                continue;
            }
            let (cols, vals) = a.row(r);
            let (dot, consumed) = row_dot(sr, cols, vals, u);
            *slot = dot;
            let hi = row_end.min(lo + consumed.next_multiple_of(ws));
            ctx.warp_read_run(8, r, r + 2);
            for p in (lo..hi).step_by(ws) {
                let end = (p + ws).min(hi);
                ctx.warp_read_run(8, p, end);
                ctx.warp_read_run(val_sz, p, end);
                ctx.warp_read(u_sz, &col_idx[p..end]);
                ctx.instr(2);
            }
            ctx.block_reduce(ws.min(hi - lo));
            ctx.warp_write(u_sz, &[r]);
        }
    });
    out
}

/// The ELL kernel over each row's first `width` entries, narrated slot by
/// slot: lane `r` of a warp loads slot `k` of row `r` at column-major
/// position `k·nrows + r` — a pad slot where the row is shorter, whose
/// column and value are loaded but no `u` — and folds the slot's product
/// into its row in slot order.
fn reference_ell<T, D1, S>(
    gpu: &Gpu,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
    width: usize,
) -> Vec<Option<T>>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let (add, mul) = (sr.add(), sr.mul());
    let nrows = a.nrows();
    let val_sz = std::mem::size_of::<D1>();
    let u_sz = std::mem::size_of::<Option<T>>();
    let mut out = vec![None; nrows];
    gpu.launch_chunks("spmv_ell", &mut out, BLOCK_DIM, |b, slice, ctx| {
        let row0 = b * BLOCK_DIM;
        let ws = ctx.warp_size();
        for warp_start in (0..slice.len()).step_by(ws) {
            let warp_end = (warp_start + ws).min(slice.len());
            let rows: Vec<usize> = (row0 + warp_start..row0 + warp_end)
                .filter(|&r| mask.is_none_or(|keep| keep.keeps(r)))
                .collect();
            if rows.is_empty() {
                continue;
            }
            for k in 0..width {
                let positions: Vec<usize> = rows.iter().map(|&r| k * nrows + r).collect();
                ctx.warp_read(8, &positions);
                ctx.warp_read(val_sz, &positions);
                let mut xcols = vec![];
                for &r in &rows {
                    let (cols, vals) = a.row(r);
                    if k < cols.len() {
                        xcols.push(cols[k]);
                        if let Some(uj) = u.get(cols[k]) {
                            let term = mul.apply(vals[k], uj);
                            let acc = &mut slice[r - row0];
                            *acc = Some(acc.map_or(term, |v| add.apply(v, term)));
                        }
                    }
                }
                if !xcols.is_empty() {
                    ctx.warp_read(u_sz, &xcols);
                }
                ctx.instr(2);
            }
            ctx.warp_write(u_sz, &rows);
        }
    });
    out
}

/// HYB, narrated: [`reference_ell`] over each row's first `w` entries — `w`
/// the degree at two thirds of the sorted rows, at least 1 — then the rest
/// as COO triples in row order, folded after the ELL part and charged as
/// one atomic kernel whatever the mask keeps.
fn reference_hyb<T, D1, S>(
    gpu: &Gpu,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> Vec<Option<T>>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let (add, mul) = (sr.add(), sr.mul());
    let mut degrees: Vec<usize> = (0..a.nrows()).map(|r| a.row_nnz(r)).collect();
    degrees.sort_unstable();
    let w = match a.nnz() {
        0 => 0,
        _ => degrees[2 * a.nrows() / 3].max(1),
    };
    let width = degrees.last().map_or(0, |&d| d.min(w));
    let mut out = reference_ell(gpu, a, u, sr, mask, width);
    let mut cols = vec![];
    for (r, slot) in out.iter_mut().enumerate() {
        let kept = mask.is_none_or(|keep| keep.keeps(r));
        let (rc, rv) = a.row(r);
        for (&j, &v) in rc.iter().zip(rv).skip(w) {
            cols.push(j);
            match u.get(j) {
                Some(uj) if kept => {
                    let term = mul.apply(v, uj);
                    *slot = Some(slot.map_or(term, |acc| add.apply(acc, term)));
                }
                _ => {}
            }
        }
    }
    let n = cols.len();
    if n > 0 {
        let txn = gpu.config().mem_transaction_bytes as u64;
        let val_sz = std::mem::size_of::<D1>() as u64;
        gpu.charge_kernel(
            "spmv_coo_overflow",
            n.div_ceil(BLOCK_DIM).max(1),
            KernelTally {
                warp_instructions: 3 * (n as u64).div_ceil(gpu.config().warp_size as u64),
                mem_transactions: (n as u64 * (16 + val_sz)).div_ceil(txn)
                    + prim::gather_cost(gpu, &cols, std::mem::size_of::<Option<T>>()),
                atomic_ops: n as u64,
            },
        );
    }
    out
}

/// Push as the pipeline it is charged as: resolve a mask, stage the
/// frontier's row extents, materialise every candidate, compact under the
/// mask, sort by destination and reduce each run.
fn reference_vxm<T, D2, S>(
    gpu: &Gpu,
    u: &SparseVector<T>,
    a: &CsrMatrix<D2>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> SparseVector<T>
where
    T: Scalar,
    D2: Scalar,
    S: Semiring<T, T, D2>,
{
    let (add, mul) = (sr.add(), sr.mul());
    let (row_ptr, frontier) = (a.row_ptr(), u.indices());
    if mask.is_some() {
        charge::mask_resolve(gpu, a.ncols());
    }
    prim::gather::charge_gather::<usize>(gpu, frontier);
    prim::gather::charge_gather::<usize>(gpu, frontier.iter().map(|&i| i + 1));
    prim::map::charge_zip_transform::<usize, usize, usize>(gpu, frontier.len());
    prim::scan::charge_scan::<usize>(gpu, frontier.len());
    let total: usize = frontier.iter().map(|&i| a.row_nnz(i)).sum();
    let (mut cand_cols, mut cand_vals) = (vec![], vec![]);
    for (&i, &ui) in frontier.iter().zip(u.values()) {
        let (cols, vals) = a.row(i);
        for (&c, &aic) in cols.iter().zip(vals) {
            if mask.is_none_or(|keep| keep.keeps(c)) {
                cand_cols.push(c);
                cand_vals.push(mul.apply(ui, aic));
            }
        }
    }
    let txn = gpu.config().mem_transaction_bytes as u64;
    let (edge_sz, val_sz) = (
        std::mem::size_of::<D2>() as u64,
        std::mem::size_of::<T>() as u64,
    );
    gpu.charge_kernel(
        "vxm_expand",
        u.nnz().div_ceil(BLOCK_DIM).max(1),
        KernelTally {
            warp_instructions: 4 * (total as u64).div_ceil(gpu.config().warp_size as u64),
            mem_transactions: prim::gather_cost(gpu, frontier.iter().map(|&i| row_ptr[i]), 8)
                + (total as u64 * (8 + edge_sz)).div_ceil(txn)
                + (total as u64 * (8 + val_sz)).div_ceil(txn),
            atomic_ops: 0,
        },
    );
    if mask.is_some() {
        prim::compact::charge_compaction::<(usize, T)>(gpu, total, cand_cols.len());
    }
    let (sorted_cols, sorted_vals) = prim::sort_pairs(gpu, &cand_cols, &cand_vals);
    let (idx, vals) = prim::reduce_by_key(gpu, &sorted_cols, &sorted_vals, |x, y| add.apply(x, y));
    SparseVector::from_sorted(a.ncols(), idx, vals).expect("sorted unique indices")
}

/// `w = A ⊕.⊗ u` as cuda-sim runs it: seq's product, charged on `gpu` from
/// that result with `u` read by position.
fn mxv<T, D1, S>(
    gpu: &Gpu,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
    kernel: SpmvKernel,
    profiles: &SpmvProfiles,
) -> DenseVector<T>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let w = gbtl_backend_seq::mxv(a, u, sr, mask);
    let early = early_exits(sr, a, |j| u.get(j), w.iter());
    charge::mxv::<T, D1>(&device(gpu, kernel, profiles), a, mask, &early);
    w
}

fn device<'a>(gpu: &'a Gpu, kernel: SpmvKernel, profiles: &'a SpmvProfiles) -> Device<'a> {
    Device {
        gpu,
        spmv_kernel: kernel,
        spmv_profiles: profiles,
    }
}

/// Kernel name, blocks and tally of every launch a device recorded.
fn launches(gpu: &Gpu) -> Vec<(&'static str, usize, KernelTally)> {
    gpu.stats()
        .kernel_log
        .into_iter()
        .map(
            |KernelRecord {
                 name,
                 blocks,
                 tally,
                 ..
             }| (name, blocks, tally),
        )
        .collect()
}

/// A small deterministic generator (xorshift64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random `m × n` CSR: a fifth of its rows empty, most short, one in six
/// longer than two warps.
fn csr<D: Scalar>(rng: &mut Rng, m: usize, n: usize, val: &impl Fn(&mut Rng) -> D) -> CsrMatrix<D> {
    let mut coo = CooMatrix::new(m, n);
    for i in 0..m {
        let len = match rng.below(6) {
            0 => 0,
            1 => 65 + rng.below(90),
            _ => 1 + rng.below(9),
        };
        for _ in 0..len {
            let j = rng.below(n);
            let v = val(rng);
            coo.push(i, j, v);
        }
    }
    CsrMatrix::from_coo(coo, |first, _| first)
}

/// Devices the charges are compared on: 128-byte and 96-byte transactions,
/// a warp that does not divide the block, and the widest warp a lane mask
/// holds, 64 lanes.
fn configs() -> [GpuConfig; 4] {
    [
        GpuConfig::k40(),
        GpuConfig {
            mem_transaction_bytes: 96,
            ..GpuConfig::k40()
        },
        GpuConfig {
            warp_size: 24,
            ..GpuConfig::k40()
        },
        GpuConfig {
            warp_size: 64,
            ..GpuConfig::k40()
        },
    ]
}

/// Operand presences, in 64ths: none, one, a quarter to three quarters,
/// all but one, all.
const PRESENT: [usize; 7] = [0, 1, 16, 32, 48, 63, 64];

/// A dense operand of length `n`, each position present with chance
/// `present / 64`.
fn operand<T: Scalar>(
    rng: &mut Rng,
    n: usize,
    present: usize,
    uval: &impl Fn(&mut Rng) -> T,
) -> DenseVector<T> {
    let mut u = DenseVector::new(n);
    for j in 0..n {
        if rng.below(64) < present {
            let v = uval(rng);
            u.set(j, v);
        }
    }
    u
}

/// A row mask over `m` rows, decided per 32-row group: all set, none set, or
/// each row set with chance 1/3 — so a warp is kept whole, not at all or in
/// part, and its complement the other way round.
fn row_mask(rng: &mut Rng, m: usize) -> DenseVector<bool> {
    let mut mask = DenseVector::new(m);
    for group in (0..m).step_by(32) {
        let mode = rng.below(3);
        for r in group..(group + 32).min(m) {
            if mode == 0 || (mode == 2 && rng.below(3) == 0) {
                mask.set(r, true);
            }
        }
    }
    mask
}

/// A dense vector holding `slots`' present entries.
fn dense<T: Scalar>(slots: &[Option<T>]) -> DenseVector<T> {
    let mut d = DenseVector::new(slots.len());
    for (i, v) in slots.iter().enumerate() {
        if let Some(v) = *v {
            d.set(i, v);
        }
    }
    d
}

/// Every pull kernel, with its reference narration.
const KERNELS: [SpmvKernel; 4] = [
    SpmvKernel::Scalar,
    SpmvKernel::Vector,
    SpmvKernel::Ell,
    SpmvKernel::Hyb,
];

/// `kernel`'s reference narration of `w = A ⊕.⊗ u` on `gpu`.
fn reference<T, D1, S>(
    kernel: SpmvKernel,
    gpu: &Gpu,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> Vec<Option<T>>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    match kernel {
        SpmvKernel::Scalar => reference_scalar(gpu, a, u, sr, mask),
        SpmvKernel::Vector => reference_vector(gpu, a, u, sr, mask),
        SpmvKernel::Ell => reference_ell(gpu, a, u, sr, mask, a.max_row_nnz()),
        _ => reference_hyb(gpu, a, u, sr, mask),
    }
}

/// Every kernel's charge of `w = A ⊕.⊗ u` on `config` — unmasked, under
/// `mask` and under its complement — equals its narration's, read off the
/// dense result and off its sparse form, through the `profiles` memo.
fn pulls_match<T, D, S>(
    sr: S,
    config: &GpuConfig,
    a: &CsrMatrix<D>,
    u: &DenseVector<T>,
    mask: &DenseVector<bool>,
    profiles: &SpmvProfiles,
    case: &str,
) where
    T: Scalar,
    D: Scalar,
    S: Semiring<T, D, T>,
{
    for masked in [None, Some(false), Some(true)] {
        let pull = masked.map(|c| VecMask::new(mask, c));
        for kernel in KERNELS {
            let (got, want, sparse) = (
                Gpu::with_trace(config.clone()),
                Gpu::with_trace(config.clone()),
                Gpu::with_trace(config.clone()),
            );
            let w = mxv(&got, a, u, sr, pull, kernel, profiles);
            let reference = reference(kernel, &want, a, u, sr, pull);
            assert_eq!(w, dense(&reference), "{kernel:?} result");
            let (us, ws) = (u.to_sparse(), w.to_sparse());
            let early = early_exits(sr, a, |j| us.get(j), ws.iter());
            charge::mxv::<T, D>(&device(&sparse, kernel, profiles), a, pull, &early);
            let case = format!("{kernel:?}, {case}, {config:?}, mask {masked:?}");
            assert_eq!(launches(&got), launches(&want), "{case}");
            assert_eq!(launches(&sparse), launches(&want), "sparse, {case}");
        }
    }
}

/// Pull and push over `rounds` random matrices — the first with no entries,
/// the second with no rows — on every config, unmasked, masked and under
/// the complemented mask. Each matrix is pulled at every presence of `u`
/// by every kernel through one profile memo, one device after another;
/// push takes one presence a round.
fn check<T, D, S>(
    sr: S,
    rounds: usize,
    seed: u64,
    val: impl Fn(&mut Rng) -> D,
    uval: impl Fn(&mut Rng) -> T,
) where
    T: Scalar,
    D: Scalar,
    S: Semiring<T, D, T> + Semiring<T, T, D>,
{
    let mut rng = Rng(seed);
    for round in 0..rounds {
        let (m, n) = (1 + rng.below(700), 1 + rng.below(700));
        let a = match round {
            0 => CsrMatrix::new(m, n),
            1 => CsrMatrix::new(0, n),
            _ => csr(&mut rng, m, n, &val),
        };
        let m = a.nrows();
        let pull_mask = row_mask(&mut rng, m);
        let operands = PRESENT.map(|present| operand(&mut rng, n, present, &uval));
        let profiles = SpmvProfiles::new();
        for config in configs() {
            for (u, present) in operands.iter().zip(PRESENT) {
                let case = format!("round {round}, present {present}/64");
                pulls_match(sr, &config, &a, u, &pull_mask, &profiles, &case);
            }
        }
        // one profile per (kernel, device), the memo bounded at eight
        assert_eq!(profiles.held(), 8.min(KERNELS.len() * configs().len()));

        let present = PRESENT[round % PRESENT.len()];
        let frontier = operand(&mut rng, m, present, &uval).to_sparse();
        let mut push_mask = DenseVector::new(n);
        for j in 0..n {
            if rng.below(3) == 0 {
                push_mask.set(j, true);
            }
        }
        for config in configs() {
            for masked in [None, Some(false), Some(true)] {
                let push = masked.map(|c| VecMask::new(&push_mask, c));
                let (got, want) = (
                    Gpu::with_trace(config.clone()),
                    Gpu::with_trace(config.clone()),
                );
                let w = gbtl_backend_seq::vxm(&frontier, &a, sr, push);
                charge::vxm(&got, &frontier, &a, push, &w);
                assert_eq!(
                    w,
                    reference_vxm(&want, &frontier, &a, sr, push),
                    "vxm result"
                );
                assert_eq!(
                    launches(&got),
                    launches(&want),
                    "vxm, round {round}, {config:?}, mask {masked:?}"
                );
            }
        }
    }
}

/// A memo holds at most eight profiles, evicts the least recently used and
/// never confuses two structures of one shape and entry count: ten row
/// permutations of one matrix, each pulled between pulls of the first, are
/// each charged what a fresh memo charges them.
#[test]
fn the_memo_is_bounded_and_keyed_by_structure() {
    let mut rng = Rng(0x5EED_0004);
    let n = 300;
    let base = csr(&mut rng, n, n, &|r: &mut Rng| r.below(5) as u32);
    // rows moved `i → k·i mod n`, each `k` coprime to 300
    let mats: Vec<CsrMatrix<u32>> = [1, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        .iter()
        .map(|&k| {
            let mut coo = CooMatrix::new(n, n);
            for (i, j, v) in base.iter() {
                coo.push(k * i % n, j, v);
            }
            CsrMatrix::from_coo(coo, |x, _| x)
        })
        .collect();
    let u = operand(&mut rng, n, 40, &|r: &mut Rng| r.below(5) as u32);
    let sr = MinPlus::<u32>::new();
    let charge = |a: &CsrMatrix<u32>, kernel, profiles: &SpmvProfiles| {
        let gpu = Gpu::with_trace(GpuConfig::k40());
        let w = mxv(&gpu, a, &u, sr, None, kernel, profiles);
        (w, launches(&gpu))
    };
    let shared = SpmvProfiles::new();
    for round in 0..2 {
        for a in &mats {
            for b in [a, &mats[0]] {
                for kernel in KERNELS {
                    assert_eq!(
                        charge(b, kernel, &shared),
                        charge(b, kernel, &SpmvProfiles::new()),
                        "round {round}, {kernel:?}"
                    );
                    assert!(shared.held() <= 8);
                }
            }
        }
    }
    assert_eq!(shared.held(), 8);
}

/// An adjacency and its weights share one structure, and with it one
/// structure id (ADR 0023): one memo sees that id under a 1-byte and a
/// 4-byte value type, and under two 4-byte arrays of different values.
/// Interleaved through one memo, each pull is charged exactly what it is
/// over a separately built equal matrix through a fresh memo: the key's
/// value size keeps the types apart, and one profile fits every array of
/// one type.
#[test]
fn value_arrays_over_one_structure_charge_as_if_built_apart() {
    fn apart<D: Scalar>(a: &CsrMatrix<D>) -> CsrMatrix<D> {
        let (rows, cols) = (a.row_ptr().to_vec(), a.col_idx().to_vec());
        CsrMatrix::from_parts(a.nrows(), a.ncols(), rows, cols, a.vals().to_vec()).unwrap()
    }
    fn pull<D: Scalar>(
        config: &GpuConfig,
        a: &CsrMatrix<D>,
        u: &DenseVector<u32>,
        mask: Option<VecMask<'_>>,
        kernel: SpmvKernel,
        profiles: &SpmvProfiles,
    ) -> (DenseVector<u32>, Vec<(&'static str, usize, KernelTally)>) {
        let gpu = Gpu::with_trace(config.clone());
        let w = mxv(&gpu, a, u, MinSecond::<u32>::new(), mask, kernel, profiles);
        (w, launches(&gpu))
    }
    let mut rng = Rng(0x5EED_0006);
    let n = 400;
    let adj = csr(&mut rng, n, n, &|_| true);
    let vals = (0..adj.nnz()).map(|_| rng.below(200) as u32).collect();
    let weights = adj.with_same_structure(vals).unwrap();
    let heavier = adj
        .with_same_structure(weights.vals().iter().map(|&w| w + 1).collect())
        .unwrap();
    assert_eq!(weights.structure_id(), adj.structure_id());
    assert_eq!(heavier.structure_id(), adj.structure_id());
    let (adj_apart, weights_apart, heavier_apart) = (apart(&adj), apart(&weights), apart(&heavier));
    let u = operand(&mut rng, n, 32, &|r: &mut Rng| r.below(3) as u32);
    let mask = row_mask(&mut rng, n);
    let shared = SpmvProfiles::new();
    for config in configs() {
        for masked in [None, Some(false), Some(true)] {
            let m = masked.map(|c| VecMask::new(&mask, c));
            for kernel in KERNELS {
                let case = format!("{kernel:?}, {config:?}, mask {masked:?}");
                let fresh = SpmvProfiles::new;
                assert_eq!(
                    pull(&config, &adj, &u, m, kernel, &shared),
                    pull(&config, &adj_apart, &u, m, kernel, &fresh()),
                    "adjacency, {case}"
                );
                assert_eq!(
                    pull(&config, &weights, &u, m, kernel, &shared),
                    pull(&config, &weights_apart, &u, m, kernel, &fresh()),
                    "weights, {case}"
                );
                assert_eq!(
                    pull(&config, &heavier, &u, m, kernel, &shared),
                    pull(&config, &heavier_apart, &u, m, kernel, &fresh()),
                    "second weights, {case}"
                );
            }
        }
    }
}

#[test]
fn lor_land_over_bool_exits_at_the_first_frontier_neighbour() {
    check(
        LorLand::new(),
        14,
        0x5EED_0001,
        |r| r.below(4) != 0,
        |r| r.below(4) != 0,
    );
}

#[test]
fn min_plus_over_u32_exits_at_zero() {
    // zeros in both operands, so some rows reach `min`'s terminal
    check(
        MinPlus::<u32>::new(),
        14,
        0x5EED_0002,
        |r| r.below(3) as u32,
        |r| r.below(3) as u32,
    );
}

#[test]
fn plus_times_over_f64_folds_every_entry() {
    check(
        PlusTimes::<f64>::new(),
        14,
        0x5EED_0003,
        |r| r.below(7) as f64 - 3.0,
        |r| r.below(5) as f64 * 0.5,
    );
}

#[test]
fn every_kept_row_stopping_at_its_first_entry_walks_one_step() {
    // `∨.∧` over all-true operands: a row's first entry folds to `true`,
    // the terminal value, so every row longer than one entry stops there
    let mut rng = Rng(0x5EED_0005);
    let m = 600;
    let a = csr(&mut rng, m, m, &|_| true);
    let u = DenseVector::filled(m, true);
    let sr = LorLand::new();
    let w = gbtl_backend_seq::mxv(&a, &u, sr, None);
    let early = early_exits(sr, &a, |j| u.get(j), w.iter());
    let longer = (0..m).filter(|&r| a.row_nnz(r) > 1);
    assert_eq!(early, longer.map(|r| (r, 1)).collect::<Vec<_>>());
    let mask = row_mask(&mut rng, m);
    let profiles = SpmvProfiles::new();
    for config in configs() {
        pulls_match(sr, &config, &a, &u, &mask, &profiles, "first-entry exits");
    }
}

#[test]
fn a_block_ending_in_a_short_warp_is_charged_as_narrated() {
    // 256 + 40 rows: a 24-lane warp ends each block in 16 lanes, a 32-lane
    // one ends the second block in 8 and a 64-lane one is 40 lanes there;
    // the rows of those short warps are the long ones
    let (m, n) = (296, 300);
    let mut rng = Rng(0x5EED_0006);
    let mut coo = CooMatrix::new(m, n);
    for i in 0..m {
        let len = match i % 256 >= 240 || i >= 280 {
            true => 70 + rng.below(20),
            false => rng.below(4),
        };
        for _ in 0..len {
            let (j, v) = (rng.below(n), rng.below(3) as u32);
            coo.push(i, j, v);
        }
    }
    let a = CsrMatrix::from_coo(coo, |first, _| first);
    let mask = row_mask(&mut rng, m);
    let profiles = SpmvProfiles::new();
    let sr = MinPlus::<u32>::new();
    for config in configs() {
        for present in [16, 64] {
            let u = operand(&mut rng, n, present, &|r: &mut Rng| r.below(3) as u32);
            let case = format!("present {present}/64");
            pulls_match(sr, &config, &a, &u, &mask, &profiles, &case);
        }
    }
}
