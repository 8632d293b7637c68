//! Sparse matrix–vector kernels over CSR.
//!
//! Four pull kernels, the CUSP formats the paper's backend chooses between
//! (experiment R-A1), all charged over the one CSR operand:
//!
//! * **scalar** — one thread per row. Lane `l` of a warp walks row `r+l`;
//!   at each step the 32 lanes load from 32 *different* rows, so the column
//!   and value loads almost never coalesce, and warps idle when row lengths
//!   diverge (degree skew).
//! * **vector** — one warp per row. The 32 lanes read 32 *consecutive*
//!   entries of one row per step (coalesced), then combine with a warp
//!   shuffle reduction. Wins on skewed/heavy rows, wastes lanes on rows
//!   shorter than a warp.
//! * **ELL** — one thread per row over every row padded to the longest,
//!   stored column-major (slot `k` of row `r` at `k·nrows + r`): a warp's
//!   slot loads coalesce perfectly, but every row pays every slot.
//! * **HYB** — ELL over each row's first entries up to CUSP's width, the
//!   rest through an atomic COO kernel.
//!
//! Plus the charge of push, [`vxm`]: frontier expansion by gather → sort →
//! reduce-by-key, the CUSP formulation of the BFS/SSSP step.
//!
//! None of them computes anything: the sequential backend computes the
//! product, in either direction, and what the device would do is charged
//! in closed form from its result and added to the device once per launch.
//! Push is charged per pipeline stage. A pull kernel is charged from its
//! `SpmvProfile` (ADRs 0006, 0007): what each row (vector) or each wholly
//! kept warp (scalar: fully walked; ELL and HYB walk every slot whatever
//! the row did) costs, and HYB's overflow launch, built once per matrix
//! structure and kept in a bounded [`SpmvProfiles`] memo; only a
//! thread-per-row warp the mask cut short, or a scalar one an early exit
//! did, is tallied warp step by warp step. A row walked to its end unless
//! it stopped at the add monoid's terminal value; seq's `early_exits`
//! reads the rows that stopped off a result.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use gbtl_algebra::Scalar;
use gbtl_gpu_sim::{primitives as prim, Coalescer, Gpu, KernelTally};
use gbtl_sparse::{CsrMatrix, SparseVector, VecMask};
use gbtl_util::sync::lock;

use crate::Device;

/// Rows (threads) per block for the SpMV launches.
const BLOCK_DIM: usize = 256;

/// Instructions of one warp-step (scalar) or stride (vector): the column,
/// value and `u` loads and two ALU instructions.
const STEP_INSTRS: u64 = 5;

/// Profiles an [`SpmvProfiles`] memo keeps: a traversal pulls over one or
/// two structures in one or two operand types, so eight cover a solve with
/// room for a second graph.
const PROFILES_KEPT: usize = 8;

/// Pull SpMV kernel selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpmvKernel {
    /// Thread-per-row.
    Scalar,
    /// Warp-per-row.
    Vector,
    /// Thread-per-row over ELLPACK slots: every row padded to the longest.
    Ell,
    /// ELL up to CUSP's width, the overflow through an atomic COO kernel.
    Hyb,
    /// Pick by average degree (≥ 6 nnz/row → vector, else scalar), the
    /// CUSP heuristic.
    #[default]
    Auto,
}

impl SpmvKernel {
    fn resolve<D1: Scalar>(self, a: &CsrMatrix<D1>) -> SpmvKernel {
        match self {
            SpmvKernel::Auto => {
                if a.nrows() > 0 && a.nnz() / a.nrows() >= 6 {
                    SpmvKernel::Vector
                } else {
                    SpmvKernel::Scalar
                }
            }
            k => k,
        }
    }

    /// The slots per row an ELL-shaped kernel walks over `a`: the longest
    /// row for ELL; for HYB, CUSP's width — the degree at rank ⌊2n/3⌋ of
    /// the sorted row degrees, at least 1 — capped at the longest row.
    /// `None` for the CSR kernels.
    pub fn ell_width<D1: Scalar>(self, a: &CsrMatrix<D1>) -> Option<usize> {
        let longest = a.max_row_nnz();
        match self {
            SpmvKernel::Hyb if longest > 0 => {
                let mut degrees: Vec<usize> = a.row_ptr().windows(2).map(|p| p[1] - p[0]).collect();
                let rank = 2 * degrees.len() / 3;
                Some((*degrees.select_nth_unstable(rank).1).clamp(1, longest))
            }
            SpmvKernel::Ell | SpmvKernel::Hyb => Some(longest),
            _ => None,
        }
    }
}

/// Everything a pull kernel's charge depends on besides the mask and how
/// far each row was walked: the matrix structure, the resolved kernel, the
/// element sizes of the matrix values and of `u`'s `Option<T>` slots, and
/// the device's warp and transaction sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProfileKey {
    structure: u64,
    kernel: SpmvKernel,
    val_sz: usize,
    u_sz: usize,
    warp_size: usize,
    txn_bytes: usize,
}

/// What one pull kernel over one structure is charged, before the mask and
/// the walks say which rows ran and how far.
#[derive(Debug)]
enum SpmvProfile {
    /// A thread-per-row kernel: per warp in launch order, its
    /// `(instructions, transactions)` when the mask keeps every row of it
    /// and, for the scalar kernel, every row is walked to its end. `ell` is
    /// ELL's and HYB's slot width, `overflow` HYB's COO launch as `(blocks,
    /// tally)`, when any row overflows.
    Warps {
        warps: Vec<(u64, u64)>,
        ell: Option<usize>,
        overflow: Option<(usize, KernelTally)>,
    },
    /// The transactions of row `r` walked `k` warp-wide strides, for `k` in
    /// `1..=⌈len/warp⌉`, at [`stride_slot`]`(r) + k - 1`: its [`row_base`]
    /// and the strides. Row `r`'s slots end where row `r + 1`'s begin: there
    /// are `1 + ⌊len/warp⌋` of them, at least the `⌈len/warp⌉` it fills, so
    /// no offset array is kept.
    Vector(Vec<u64>),
}

impl SpmvProfile {
    /// The profile of `key` over `a`, tallied by the arithmetic the kernels
    /// charge a row or a warp with.
    fn build<D1: Scalar>(gpu: &Gpu, a: &CsrMatrix<D1>, key: &ProfileKey) -> Self {
        let c = Coalescer::new(gpu.config());
        let (row_ptr, col_idx, ws) = (a.row_ptr(), a.col_idx(), key.warp_size);
        let mut scratch = Vec::new();
        match key.kernel {
            SpmvKernel::Vector => {
                let mut txns = vec![0; stride_slot(row_ptr, ws, a.nrows())];
                for r in 0..a.nrows() {
                    let (lo, end) = (row_ptr[r], row_ptr[r + 1]);
                    let mut t = row_base(&c, r);
                    for (slot, p) in (stride_slot(row_ptr, ws, r)..).zip((lo..end).step_by(ws)) {
                        let e = (p + ws).min(end);
                        t += c.run_segments(8, p, e)
                            + c.run_segments(key.val_sz, p, e)
                            + c.distinct_segments(key.u_sz, &col_idx[p..e], &mut scratch);
                        txns[slot] = t;
                    }
                }
                SpmvProfile::Vector(txns)
            }
            kernel => {
                let ell = kernel.ell_width(a);
                let lanes_of = RowLanes { c, key, a, ell };
                let n = a.nrows();
                let mut warps = Vec::with_capacity(n.div_ceil(ws));
                let mut lanes = Vec::with_capacity(ws);
                for row0 in (0..n).step_by(BLOCK_DIM) {
                    let block_end = (row0 + BLOCK_DIM).min(n);
                    for first in (row0..block_end).step_by(ws) {
                        let rows = first..(first + ws).min(block_end);
                        let mut kept = KeptRows::new();
                        lanes.clear();
                        for r in rows.clone() {
                            kept.add(&c, key.u_sz, r);
                            let len = a.row_nnz(r);
                            if len > 0 {
                                lanes.push((row_ptr[r], len));
                            }
                        }
                        let charge =
                            lanes_of.charge(&kept, rows, |_| true, &mut lanes, &mut scratch);
                        warps.push(charge);
                    }
                }
                let overflow = ell
                    .filter(|_| kernel == SpmvKernel::Hyb)
                    .and_then(|width| coo_overflow(gpu, a, key, width));
                SpmvProfile::Warps {
                    warps,
                    ell,
                    overflow,
                }
            }
        }
    }
}

/// HYB's COO launch over the entries past slot `width` of each row, in row
/// order, as `(blocks, tally)`: the triples streamed, the `u` gather at
/// their columns and one atomic combine each, whatever the mask keeps.
/// `None` when no row overflows.
fn coo_overflow<D1: Scalar>(
    gpu: &Gpu,
    a: &CsrMatrix<D1>,
    key: &ProfileKey,
    width: usize,
) -> Option<(usize, KernelTally)> {
    let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
    let tail = |r: usize| (row_ptr[r] + width).min(row_ptr[r + 1])..row_ptr[r + 1];
    let n: usize = (0..a.nrows()).map(|r| tail(r).len()).sum();
    if n == 0 {
        return None;
    }
    let cols = (0..a.nrows()).flat_map(|r| &col_idx[tail(r)]);
    let config = gpu.config();
    let txn = config.mem_transaction_bytes as u64;
    let tally = KernelTally {
        warp_instructions: 3 * (n as u64).div_ceil(config.warp_size as u64),
        mem_transactions: (n as u64 * (16 + key.val_sz as u64)).div_ceil(txn)
            + prim::gather_cost(gpu, cols, key.u_sz),
        atomic_ops: n as u64,
    };
    Some((n.div_ceil(BLOCK_DIM).max(1), tally))
}

/// Where row `r`'s strides start in a vector profile: `r + ⌊row_ptr[r] /
/// warp⌋`, so `stride_slot(nrows)` is the profile's length.
#[inline]
fn stride_slot(row_ptr: &[usize], ws: usize, r: usize) -> usize {
    r + row_ptr[r] / ws
}

/// The transactions a vector-kernel row pays whatever it walks: lane 0's
/// row-pointer pair and the result store.
#[inline]
fn row_base(c: &Coalescer, r: usize) -> u64 {
    c.run_segments(8, r, r + 2) + 1
}

/// A memoised profile and its charge when every row is kept and walks to
/// its end (an unmasked pull with no early exit: PageRank's).
type Profiled = (SpmvProfile, KernelTally);

/// A bounded memo of pull-kernel profiles, least recently used evicted
/// first. It is keyed by [`CsrMatrix::structure_id`] — never by a buffer's
/// address, which a freed matrix hands on to the next one — and the lock is
/// held only to look a profile up or insert one, never while building.
#[derive(Debug, Default)]
pub struct SpmvProfiles {
    lru: Mutex<Vec<(ProfileKey, Arc<Profiled>)>>,
}

impl SpmvProfiles {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Profiles held now (at most eight).
    pub fn held(&self) -> usize {
        lock(&self.lru).len()
    }

    /// `key`'s profile, built by `build` on a miss.
    fn get(&self, key: ProfileKey, build: impl FnOnce() -> Profiled) -> Arc<Profiled> {
        {
            let mut lru = lock(&self.lru);
            if let Some(i) = lru.iter().position(|(k, _)| *k == key) {
                let hit = lru.remove(i);
                let profile = Arc::clone(&hit.1);
                lru.push(hit);
                return profile;
            }
        }
        let profile = Arc::new(build());
        let mut lru = lock(&self.lru);
        if !lru.iter().any(|(k, _)| *k == key) {
            if lru.len() == PROFILES_KEPT {
                lru.remove(0);
            }
            lru.push((key, Arc::clone(&profile)));
        }
        profile
    }
}

/// Pull-direction `w = A ⊕.⊗ u`'s kernel, charged from its result:
/// `device`'s pull kernel over `a` — built once per structure as a profile
/// — over the rows `mask` keeps, each walked to its end but the rows
/// `early` lists, `(row, entries walked)` in row order. `T` is `u`'s value
/// type. A masked pull resolves its mask first ([`mask_resolve`]).
pub fn mxv<T: Scalar, D1: Scalar>(
    device: &Device<'_>,
    a: &CsrMatrix<D1>,
    mask: Option<VecMask<'_>>,
    early: &[(usize, usize)],
) {
    let config = device.config();
    let key = ProfileKey {
        structure: a.structure_id(),
        kernel: device.spmv_kernel.resolve(a),
        val_sz: std::mem::size_of::<D1>(),
        u_sz: std::mem::size_of::<Option<T>>(),
        warp_size: config.warp_size,
        txn_bytes: config.mem_transaction_bytes,
    };
    let c = Coalescer::new(config);
    let walks = |mask, early| Walks {
        row_ptr: a.row_ptr(),
        mask,
        early,
    };
    let profiled = device.spmv_profiles.get(key, || {
        let profile = SpmvProfile::build(device, a, &key);
        let full = profile.tally(c, &key, a, walks(None, &[]));
        (profile, full)
    });
    let (profile, full) = &*profiled;
    let tally = match (mask, early) {
        (None, []) => *full,
        _ => profile.tally(c, &key, a, walks(mask, early)),
    };
    let name = match profile {
        SpmvProfile::Warps { ell: None, .. } => "spmv_csr_scalar",
        SpmvProfile::Warps { .. } => "spmv_ell",
        SpmvProfile::Vector(_) => "spmv_csr_vector",
    };
    device.charge_kernel(name, a.nrows().div_ceil(BLOCK_DIM).max(1), tally);
    if let SpmvProfile::Warps {
        overflow: Some((blocks, tally)),
        ..
    } = profile
    {
        device.charge_kernel("spmv_coo_overflow", *blocks, *tally);
    }
}

impl SpmvProfile {
    /// The pull kernel's charge over `a` for `walks`.
    fn tally<D1: Scalar>(
        &self,
        c: Coalescer,
        key: &ProfileKey,
        a: &CsrMatrix<D1>,
        walks: Walks<'_>,
    ) -> KernelTally {
        match self {
            SpmvProfile::Warps { warps, ell, .. } => {
                let lanes_of = RowLanes {
                    c,
                    key,
                    a,
                    ell: *ell,
                };
                spmv_warps(&lanes_of, warps, walks)
            }
            SpmvProfile::Vector(txns) => spmv_vector(&c, key, txns, walks),
        }
    }
}

/// Which rows a pull keeps and how far each walks, asked in ascending row
/// order: a kept row to its end, but the rows `early` lists.
struct Walks<'a> {
    row_ptr: &'a [usize],
    mask: Option<VecMask<'a>>,
    early: &'a [(usize, usize)],
}

impl Walks<'_> {
    #[inline(always)]
    fn keeps(&self, r: usize) -> bool {
        self.mask.is_none_or(|keep| keep.keeps(r))
    }

    /// Whether every row of `rows` is kept and walks to its end; every
    /// later question is about a later row.
    #[inline(always)]
    fn whole(&mut self, rows: Range<usize>) -> bool {
        while self.early.first().is_some_and(|&(row, _)| row < rows.start) {
            self.early = &self.early[1..];
        }
        self.early.first().is_none_or(|&(row, _)| row >= rows.end)
            && (self.mask.is_none() || rows.into_iter().all(|r| self.keeps(r)))
    }

    /// Row `r`'s walk; every later question is about a later row.
    #[inline(always)]
    fn walk(&mut self, r: usize) -> usize {
        while let Some((&(row, walked), rest)) = self.early.split_first() {
            if row > r {
                break;
            }
            self.early = rest;
            if row == r {
                return walked;
            }
        }
        self.row_ptr[r + 1] - self.row_ptr[r]
    }
}

/// The thread-per-row kernels' charge. A warp whose rows the mask all
/// keeps — and, for the scalar kernel, whose rows all walk to their end —
/// is charged its profile entry `warps[w]`; any other warp is tallied by
/// [`RowLanes::charge`] over the rows it kept and the walks they made.
fn spmv_warps<D1: Scalar>(
    lanes_of: &RowLanes<'_, D1>,
    warps: &[(u64, u64)],
    mut walks: Walks<'_>,
) -> KernelTally {
    let (c, key, n) = (&lanes_of.c, lanes_of.key, lanes_of.a.nrows());
    let (row_ptr, ell) = (lanes_of.a.row_ptr(), lanes_of.ell.is_some());
    let (mut instrs, mut txns) = (0u64, 0u64);
    // The live lanes' first entry and walk length, in row order, and the
    // segments of one warp-step's `u` gather (the only unsorted loads).
    let (mut lanes, mut segs): (Vec<(usize, usize)>, Vec<u64>) = (vec![], vec![]);
    let mut profiled = warps.iter();
    for row0 in (0..n).step_by(BLOCK_DIM) {
        let block_end = (row0 + BLOCK_DIM).min(n);
        for first in (row0..block_end).step_by(key.warp_size) {
            let whole_warp = profiled.next().expect("one profile entry per warp");
            let rows = first..(first + key.warp_size).min(block_end);
            if walks.whole(rows.clone()) {
                instrs += whole_warp.0;
                txns += whole_warp.1;
                continue;
            }
            let mut kept = KeptRows::new();
            let mut whole = true;
            lanes.clear();
            for r in rows.clone() {
                if !walks.keeps(r) {
                    whole = false;
                    continue;
                }
                kept.add(c, key.u_sz, r);
                let walked = walks.walk(r);
                whole &= walked == row_ptr[r + 1] - row_ptr[r];
                if walked > 0 {
                    lanes.push((row_ptr[r], walked));
                }
            }
            // ELL's profile entry holds however far the rows walked
            let (i, t) = if whole || ell && kept.rows == rows.len() as u64 {
                *whole_warp
            } else {
                lanes_of.charge(&kept, rows, |r| walks.keeps(r), &mut lanes, &mut segs)
            };
            instrs += i;
            txns += t;
        }
    }
    KernelTally {
        warp_instructions: instrs,
        mem_transactions: txns,
        atomic_ops: 0,
    }
}

/// What a thread-per-row warp over one matrix is charged: the scalar
/// kernel walks a kept row as far as its walk went; ELL, at `ell` = its
/// slot width, walks every slot of every kept row whatever the row did.
struct RowLanes<'a, D1> {
    c: Coalescer,
    key: &'a ProfileKey,
    a: &'a CsrMatrix<D1>,
    ell: Option<usize>,
}

impl<D1: Scalar> RowLanes<'_, D1> {
    /// The warp over `rows`, of which `keeps` says which the mask keeps
    /// (`kept`) and `lanes` the `(first entry, walk length)` of those whose
    /// walk is not empty, as `(instructions, transactions)`.
    #[inline(always)]
    fn charge(
        &self,
        kept: &KeptRows,
        rows: Range<usize>,
        keeps: impl Fn(usize) -> bool,
        lanes: &mut Vec<(usize, usize)>,
        segs: &mut Vec<u64>,
    ) -> (u64, u64) {
        match self.ell {
            None => scalar_warp(&self.c, self.key, self.a.col_idx(), kept, lanes, segs),
            Some(width) => self.ell_warp(width, kept, rows, keeps, segs),
        }
    }

    /// One ELL warp: per slot `k < width`, the column and value loads at
    /// column-major position `k·nrows + r` of every kept row, pad or not,
    /// the `u` gather at the filled slots' columns and two ALU
    /// instructions; then one result store over the kept rows.
    fn ell_warp(
        &self,
        width: usize,
        kept: &KeptRows,
        rows: Range<usize>,
        keeps: impl Fn(usize) -> bool,
        segs: &mut Vec<u64>,
    ) -> (u64, u64) {
        if kept.rows == 0 {
            return (0, 0);
        }
        let (c, key, nrows) = (&self.c, self.key, self.a.nrows());
        let (row_ptr, col_idx) = (self.a.row_ptr(), self.a.col_idx());
        let (mut instrs, mut txns) = (1 + 4 * width as u64, kept.out_segs);
        for k in 0..width {
            let (mut last_idx, mut last_val) = (u64::MAX, u64::MAX);
            segs.clear();
            for r in rows.clone().filter(|&r| keeps(r)) {
                let p = k * nrows + r;
                txns += changes(c.segment_of(8, p), &mut last_idx)
                    + changes(c.segment_of(key.val_sz, p), &mut last_val);
                if row_ptr[r] + k < row_ptr[r + 1] {
                    segs.push(c.segment_of(key.u_sz, col_idx[row_ptr[r] + k]));
                }
            }
            if !segs.is_empty() {
                instrs += 1;
                txns += Coalescer::count_distinct(segs);
            }
        }
        (instrs, txns)
    }
}

/// A change of segment from lane to lane, `prev` starting at none.
#[inline(always)]
fn changes(seg: u64, prev: &mut u64) -> u64 {
    let changed = u64::from(seg != *prev);
    *prev = seg;
    changed
}

/// The rows of one thread-per-row warp the mask keeps, counted as they
/// arrive in ascending order with the row-pointer and result segments they
/// touch.
struct KeptRows {
    rows: u64,
    ptr_segs: u64,
    out_segs: u64,
    last_ptr: u64,
    last_out: u64,
}

impl KeptRows {
    fn new() -> Self {
        Self {
            rows: 0,
            ptr_segs: 0,
            out_segs: 0,
            last_ptr: u64::MAX,
            last_out: u64::MAX,
        }
    }

    #[inline(always)]
    fn add(&mut self, c: &Coalescer, u_sz: usize, r: usize) {
        self.rows += 1;
        self.ptr_segs += changes(c.segment_of(8, r), &mut self.last_ptr);
        self.out_segs += changes(c.segment_of(u_sz, r), &mut self.last_out);
    }
}

/// What one warp of the thread-per-row kernel is charged, as
/// `(instructions, transactions)`, given the rows the mask keeps (`kept`)
/// and, for those whose walk is not empty, `(first entry, walk length)` in
/// row order (`lanes`, consumed). Two row-pointer loads and a result store
/// over the kept rows, then one warp-step per entry of the longest walk —
/// column, value and `u` loads at the live lanes' addresses plus two ALU
/// instructions — where a lane drops out when its walk ends.
#[inline(always)]
fn scalar_warp(
    c: &Coalescer,
    key: &ProfileKey,
    col_idx: &[usize],
    kept: &KeptRows,
    lanes: &mut Vec<(usize, usize)>,
    segs: &mut Vec<u64>,
) -> (u64, u64) {
    if kept.rows == 0 {
        return (0, 0);
    }
    let (val_sz, u_sz) = (key.val_sz, key.u_sz);
    let (mut instrs, mut txns) = (3u64, 2 * kept.ptr_segs + kept.out_segs);
    // every lane in `lanes` walks past step `s`; the shortest walk ends at
    // `until`, where the finished lanes are dropped
    let mut s = 0;
    while lanes.len() > 1 {
        let until = lanes.iter().map(|&(_, len)| len).min().unwrap_or(0);
        for step in s..until {
            // live positions ascend: count their segment changes
            let (mut last_idx, mut last_val, mut last_u) = (u64::MAX, u64::MAX, 0);
            let (mut idx_segs, mut val_segs, mut sorted) = (0, 0, true);
            segs.clear();
            for &(first, _) in lanes.iter() {
                let p = first + step;
                idx_segs += changes(c.segment_of(8, p), &mut last_idx);
                val_segs += changes(c.segment_of(val_sz, p), &mut last_val);
                let seg = c.segment_of(u_sz, col_idx[p]);
                sorted &= seg >= last_u;
                last_u = seg;
                segs.push(seg);
            }
            let u_segs = if sorted {
                1 + segs.windows(2).filter(|w| w[0] != w[1]).count() as u64
            } else {
                Coalescer::count_distinct(segs)
            };
            txns += idx_segs + val_segs + u_segs;
        }
        instrs += STEP_INSTRS * (until - s) as u64;
        s = until;
        lanes.retain(|&(_, len)| len > until);
    }
    // one lane left walks alone: one segment per load per step
    if let Some(&(_, len)) = lanes.first() {
        let steps = (len - s) as u64;
        instrs += STEP_INSTRS * steps;
        txns += 3 * steps;
    }
    (instrs, txns)
}

/// The warp-per-row kernel's charge. Per row the mask keeps and that has
/// entries: the row pointer pair by lane 0; a warp-wide stride at a time,
/// coalesced column and value loads, the `u` gather at the stride's columns
/// and two ALU instructions, up to the stride in which its walk ended; the
/// warp's shuffle reduction; one store. A row's transactions are its
/// profile entry for the strides it walked.
fn spmv_vector(c: &Coalescer, key: &ProfileKey, txns: &[u64], mut walks: Walks<'_>) -> KernelTally {
    let ws = key.warp_size;
    // pointer load, shuffle reduction of one warp (`BlockCtx::block_reduce`
    // of at most a warp of lanes) and the store
    let lg = u64::from(usize::BITS - (ws.max(2) - 1).leading_zeros());
    let row_instrs = 1 + (lg + 1) + 1;
    let row_ptr = walks.row_ptr;
    // `x / ws`, a shift for the power-of-two warps every device model has
    let shift = ws.is_power_of_two().then(|| ws.trailing_zeros());
    let per_warp = |x: usize| match shift {
        Some(s) => x >> s,
        None => x / ws,
    };
    let (mut rows, mut strides, mut row_txns) = (0u64, 0u64, 0u64);
    for r in 0..row_ptr.len() - 1 {
        if row_ptr[r] == row_ptr[r + 1] || !walks.keeps(r) {
            continue;
        }
        let k = per_warp(walks.walk(r) + ws - 1);
        rows += 1;
        strides += k as u64;
        // a walk of no stride (a row that walked nothing) pays the base
        row_txns += match k {
            0 => row_base(c, r),
            // `stride_slot(r) + k - 1`
            k => txns[r + per_warp(row_ptr[r]) + k - 1],
        };
    }
    KernelTally {
        warp_instructions: rows * row_instrs + STEP_INSTRS * strides,
        mem_transactions: row_txns,
        atomic_ops: 0,
    }
}

/// The device-side resolution of an `n`-entry vector mask into a keep
/// bitmap, which the frontend's host-resolved mask stands in for.
pub fn mask_resolve(gpu: &Gpu, n: usize) {
    let txn = gpu.config().mem_transaction_bytes as u64;
    gpu.charge_kernel(
        "mask_resolve",
        n.div_ceil(4096).max(1),
        KernelTally {
            warp_instructions: (n as u64).div_ceil(gpu.config().warp_size as u64),
            mem_transactions: (2 * n as u64).div_ceil(txn),
            atomic_ops: 0,
        },
    );
}

/// Push-direction product `w = uᵀ ⊕.⊗ A` for a sparse frontier `u` — the
/// CUSP-style gather → sort → reduce-by-key pipeline, charged stage by
/// stage from the frontier, its edge count, the candidates the mask keeps
/// and the output's size, after the mask's [`mask_resolve`].
///
/// The sequential `vxm` computes `w`, and it is the pipeline's own result:
/// the stable sort keeps each destination's candidates in frontier-then-row
/// order, and `reduce_by_key` folds each run in that order, seeded by its
/// first term — the order the sequential accumulator folds in.
pub fn vxm<T, D2>(
    gpu: &Gpu,
    u: &SparseVector<T>,
    a: &CsrMatrix<D2>,
    mask: Option<VecMask<'_>>,
    w: &SparseVector<T>,
) where
    T: Scalar,
    D2: Scalar,
{
    if mask.is_some() {
        mask_resolve(gpu, a.ncols());
    }
    let row_ptr = a.row_ptr();
    let frontier = u.indices();

    // 1–2. Each frontier vertex's row start and end (two gathers of the row
    //    pointer, the second one entry on), their difference, and its scan
    //    into output offsets.
    prim::gather::charge_gather::<usize>(gpu, frontier);
    prim::gather::charge_gather::<usize>(gpu, frontier.iter().map(|&i| i + 1));
    prim::map::charge_zip_transform::<usize, usize, usize>(gpu, frontier.len());
    prim::scan::charge_scan::<usize>(gpu, frontier.len());

    // 3–4. Expansion kernel: copy each selected row's columns, combining
    //    the frontier value with the edge value into the candidate key and
    //    value buffers: row starts gather + mostly-coalesced streams of the
    //    rows' columns/values + coalesced candidate writes. Under a mask a
    //    `copy_if` then keeps the candidates whose column it allows.
    let total: usize = frontier.iter().map(|&i| a.row_nnz(i)).sum();
    let txn = gpu.config().mem_transaction_bytes as u64;
    let edge_sz = std::mem::size_of::<D2>() as u64;
    let val_sz = std::mem::size_of::<T>() as u64;
    gpu.charge_kernel(
        "vxm_expand",
        u.nnz().div_ceil(BLOCK_DIM).max(1),
        KernelTally {
            warp_instructions: 4 * (total as u64).div_ceil(gpu.config().warp_size as u64),
            mem_transactions: prim::gather_cost(gpu, frontier.iter().map(|&i| row_ptr[i]), 8)
                + (total as u64 * (8 + edge_sz)).div_ceil(txn) // row payload reads
                + (total as u64 * (8 + val_sz)).div_ceil(txn), // candidate writes
            atomic_ops: 0,
        },
    );
    let kept = match mask {
        None => total,
        Some(keep) => {
            let kept = frontier
                .iter()
                .map(|&i| a.row(i).0.iter().filter(|&&c| keep.keeps(c)).count())
                .sum();
            prim::compact::charge_compaction::<(usize, T)>(gpu, total, kept);
            kept
        }
    };

    // 5. Sort the candidates by destination; combine each destination's
    //    run with the add monoid.
    prim::sort::charge_radix_sort::<usize, T>(gpu, kept);
    prim::reduce::charge_reduce_by_key::<usize, T>(gpu, kept, w.nnz());
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::PlusTimes;
    use gbtl_sparse::CooMatrix;

    fn adj() -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(4, 4);
        for &(i, j, v) in &[
            (0, 1, 3),
            (0, 2, 1),
            (1, 2, 1),
            (2, 0, 2),
            (2, 3, 8),
            (3, 0, 1),
            (3, 1, 1),
            (3, 2, 1),
        ] {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    /// What `kernel` charges a pull of `a` over an `i64` operand, every
    /// kept row walked to its end.
    fn pull(
        gpu: &Gpu,
        a: &CsrMatrix<i64>,
        kernel: SpmvKernel,
        mask: Option<VecMask<'_>>,
        profiles: &SpmvProfiles,
    ) -> gbtl_gpu_sim::GpuStats {
        let device = Device {
            gpu,
            spmv_kernel: kernel,
            spmv_profiles: profiles,
        };
        mxv::<i64, i64>(&device, a, mask, &[]);
        gpu.stats()
    }

    #[test]
    fn ell_widths() {
        // degrees 2, 1, 2, 3: the longest is 3, rank ⌊8/3⌋ = 2 of 1 2 2 3 is 2
        let a = adj();
        assert_eq!(SpmvKernel::Ell.ell_width(&a), Some(3));
        assert_eq!(SpmvKernel::Hyb.ell_width(&a), Some(2));
        assert_eq!(SpmvKernel::Vector.ell_width(&a), None);
        // mostly empty rows: HYB keeps at least one slot
        let mut coo = CooMatrix::new(6, 6);
        coo.push(0, 1, 1i64);
        coo.push(0, 2, 1);
        let sparse = CsrMatrix::from_coo(coo, |a, _| a);
        assert_eq!(SpmvKernel::Hyb.ell_width(&sparse), Some(1));
        let empty = CsrMatrix::<i64>::new(3, 3);
        assert_eq!(SpmvKernel::Hyb.ell_width(&empty), Some(0));
        assert_eq!(SpmvKernel::Ell.ell_width(&empty), Some(0));
    }

    #[test]
    fn ell_pays_for_padding_and_hyb_overflows_through_atomics() {
        // One heavy row forces every ELL row to 512 slots; HYB keeps one
        // slot and sends the heavy row's tail through the COO kernel.
        let mut coo = CooMatrix::new(64, 512);
        for j in 0..512 {
            coo.push(0, j, 1i64);
        }
        for r in 1..64 {
            coo.push(r, r, 1i64);
        }
        let a = CsrMatrix::from_coo(coo, |a, _| a);
        let profiles = SpmvProfiles::new();
        let stats = |kernel| pull(&Gpu::default(), &a, kernel, None, &profiles);
        let (ell, vector, hyb) = (
            stats(SpmvKernel::Ell),
            stats(SpmvKernel::Vector),
            stats(SpmvKernel::Hyb),
        );
        assert!(
            ell.warp_instructions > 3 * vector.warp_instructions,
            "ELL should burn many more instructions on skew: {} vs {}",
            ell.warp_instructions,
            vector.warp_instructions
        );
        assert_eq!((ell.kernels_launched, ell.atomic_ops), (1, 0));
        assert_eq!((hyb.kernels_launched, hyb.atomic_ops), (2, 511));
    }

    #[test]
    fn a_masked_pull_charges_the_kept_rows_only() {
        let a = adj();
        let keep = [true, false, true, false];
        let profiles = SpmvProfiles::new();
        let mask = Some(VecMask::from(&keep[..]));
        let half = pull(&Gpu::default(), &a, SpmvKernel::Scalar, mask, &profiles);
        let all = pull(&Gpu::default(), &a, SpmvKernel::Scalar, None, &profiles);
        assert_eq!((half.kernels_launched, all.kernels_launched), (1, 1));
        assert!(half.mem_transactions < all.mem_transactions);
    }

    #[test]
    fn an_early_exit_walks_less() {
        // row 3 is 100 entries long: more than one warp-wide stride
        let mut coo = CooMatrix::new(4, 128);
        for j in 0..100 {
            coo.push(3, j, 1i64);
        }
        coo.push(0, 5, 1);
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let profiles = SpmvProfiles::new();
        for kernel in [SpmvKernel::Scalar, SpmvKernel::Vector] {
            let device = |gpu| Device {
                gpu,
                spmv_kernel: kernel,
                spmv_profiles: &profiles,
            };
            let (full, early) = (Gpu::default(), Gpu::default());
            mxv::<i64, i64>(&device(&full), &a, None, &[]);
            // row 3 stops after its first entry
            mxv::<i64, i64>(&device(&early), &a, None, &[(3, 1)]);
            let (full, early) = (full.stats(), early.stats());
            assert!(
                early.warp_instructions < full.warp_instructions,
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn a_masked_push_resolves_the_mask_first() {
        let gpu = Gpu::with_trace(Default::default());
        let a = adj();
        let mut u = SparseVector::new(4);
        u.set(3, 1i64);
        let keep = [false, true, false, false];
        let mask = Some(VecMask::from(&keep[..]));
        let w = gbtl_backend_seq::vxm(&u, &a, PlusTimes::<i64>::new(), mask);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![(1, 1)]);
        vxm(&gpu, &u, &a, mask, &w);
        let log = gpu.stats().kernel_log;
        assert_eq!(log[0].name, "mask_resolve");
        assert!(log.iter().any(|k| k.name == "compact_flags"));
    }

    #[test]
    fn auto_kernel_picks_by_degree() {
        let a = adj(); // 8 nnz / 4 rows = 2 -> scalar
        assert_eq!(SpmvKernel::Auto.resolve(&a), SpmvKernel::Scalar);
        let mut coo = CooMatrix::new(2, 64);
        for j in 0..64 {
            coo.push(0, j, 1i64);
            coo.push(1, j, 1);
        }
        let heavy = CsrMatrix::from_coo(coo, |a, _| a);
        assert_eq!(SpmvKernel::Auto.resolve(&heavy), SpmvKernel::Vector);
    }

    #[test]
    fn vector_kernel_coalesces_better_on_heavy_rows() {
        // A single dense-ish row: the vector kernel's column/value loads are
        // consecutive, the scalar kernel's are one-lane-at-a-time.
        let mut coo = CooMatrix::new(32, 512);
        for j in 0..512 {
            coo.push(0, j, 1i64);
        }
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let profiles = SpmvProfiles::new();
        let txns = |kernel| pull(&Gpu::default(), &a, kernel, None, &profiles).mem_transactions;
        let (ts, tv) = (txns(SpmvKernel::Scalar), txns(SpmvKernel::Vector));
        assert!(
            tv < ts,
            "vector kernel ({tv} txns) should beat scalar ({ts} txns) on a heavy row"
        );
    }
}
