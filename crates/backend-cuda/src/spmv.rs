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
//! `SpmvProfile` (ADRs 0006, 0007), built once per matrix structure and
//! kept in a bounded [`SpmvProfiles`] memo, and from the mask's keep bits,
//! read a word of 64 rows at a time. A thread-per-row profile holds each
//! warp as lane masks — per load, the lanes whose addresses share a
//! transaction segment — so any warp, however the mask or an early exit cut
//! it, is charged by counting the masks its live lanes meet. A warp-per-row
//! profile holds each row's transactions per stride walked and their sums
//! per 64 rows. A row walks to its end unless it stopped at the add
//! monoid's terminal value; seq's `early_exits` reads the rows that stopped
//! off a result.

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

/// Lanes one lane mask holds: the widest warp a thread-per-row profile
/// takes ([`GpuConfig::warp_size`](gbtl_gpu_sim::GpuConfig::warp_size)).
const MAX_LANES: usize = u64::BITS as usize;

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
    /// A thread-per-row kernel's warps as lane masks, and HYB's COO
    /// launch as `(blocks, tally)` when any row overflows.
    Warps {
        lanes: LaneMasks,
        overflow: Option<(usize, KernelTally)>,
    },
    /// The warp-per-row kernel. `txns` holds the transactions of row `r`
    /// walked `k` warp-wide strides, for `k` in `1..=⌈len/warp⌉`, at
    /// [`stride_slot`]`(r) + k - 1`: its [`row_base`] and the strides. Row
    /// `r`'s slots end where row `r + 1`'s begin: there are `1 +
    /// ⌊len/warp⌋` of them, at least the `⌈len/warp⌉` it fills, so no
    /// offset array is kept. `blocks[b]` sums rows `64·b ..` walked to
    /// their end.
    Vector {
        txns: Vec<u64>,
        blocks: Vec<RowBlock>,
    },
}

/// 64 consecutive rows of the warp-per-row kernel, each walked to its end:
/// the rows with entries (bit `b` for row `64·block + b`), and their
/// strides and transactions summed.
#[derive(Debug, Clone, Copy, Default)]
struct RowBlock {
    nonempty: u64,
    strides: u64,
    txns: u64,
}

impl SpmvProfile {
    /// The profile of `key` over `a`, tallied by the arithmetic the kernels
    /// charge a row or a warp with.
    fn build<D1: Scalar>(gpu: &Gpu, a: &CsrMatrix<D1>, key: &ProfileKey) -> Self {
        let c = Coalescer::new(gpu.config());
        let (row_ptr, col_idx, ws) = (a.row_ptr(), a.col_idx(), key.warp_size);
        match key.kernel {
            SpmvKernel::Vector => {
                let mut txns = vec![0; stride_slot(row_ptr, ws, a.nrows())];
                let mut blocks = vec![RowBlock::default(); a.nrows().div_ceil(64)];
                let mut scratch = Vec::new();
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
                    if end > lo {
                        let block = &mut blocks[r / 64];
                        block.nonempty |= 1 << (r % 64);
                        block.strides += (end - lo).div_ceil(ws) as u64;
                        block.txns += t;
                    }
                }
                SpmvProfile::Vector { txns, blocks }
            }
            kernel => {
                let ell = kernel.ell_width(a);
                let overflow = ell
                    .filter(|_| kernel == SpmvKernel::Hyb)
                    .and_then(|width| coo_overflow(gpu, a, key, width));
                SpmvProfile::Warps {
                    lanes: LaneMasks::build(&c, a, key, ell),
                    overflow,
                }
            }
        }
    }

    /// The pull kernel's charge over `a` for the rows `mask` keeps, walked
    /// to their end but the rows `early` lists.
    fn tally<D1: Scalar>(
        &self,
        c: &Coalescer,
        key: &ProfileKey,
        a: &CsrMatrix<D1>,
        mask: Option<VecMask<'_>>,
        early: &[(usize, usize)],
    ) -> KernelTally {
        match self {
            SpmvProfile::Warps { lanes, .. } => lanes.tally(mask, early),
            SpmvProfile::Vector { txns, blocks } => {
                spmv_vector(c, key, a.row_ptr(), (txns, blocks), mask, early)
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

/// A memoised profile, its charge when every row is kept and walks to its
/// end (an unmasked pull with no early exit: PageRank's), and the rows whose
/// early exit can move a charge ([`exit_rows`]).
#[derive(Debug)]
struct Profiled {
    profile: SpmvProfile,
    full: KernelTally,
    exits: Arc<[u64]>,
}

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
    mxv_stacked::<T, D1>(device, a, [(mask, early)]);
}

/// The pull-kernel profile of `a` on `device` for a `T` operand, built on
/// the structure's first pull and memoised, with what it is read with.
fn profiled<T: Scalar, D1: Scalar>(
    device: &Device<'_>,
    a: &CsrMatrix<D1>,
) -> (Coalescer, ProfileKey, Arc<Profiled>) {
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
    let profiled = device.spmv_profiles.get(key, || {
        let profile = SpmvProfile::build(device, a, &key);
        let full = profile.tally(&c, &key, a, None, &[]);
        let floor = match key.kernel {
            SpmvKernel::Vector => key.warp_size + 1,
            SpmvKernel::Ell | SpmvKernel::Hyb => usize::MAX,
            _ => 2,
        };
        let mut exits = vec![0u64; a.nrows().div_ceil(64)];
        for (r, p) in a.row_ptr().windows(2).enumerate() {
            exits[r / 64] |= u64::from(p[1] - p[0] >= floor) << (r % 64);
        }
        Profiled {
            profile,
            full,
            exits: exits.into(),
        }
    });
    (c, key, profiled)
}

/// The rows of `a` whose early exit can move `device`'s pull charge for a
/// `T` operand ([`mxv`]'s `early`), 64 a word, bit `i` of word `b` for row
/// `64·b + i`: a warp-per-row kernel pays whole warp-wide strides, so only
/// a row longer than a warp; ELL and HYB walk every slot of a kept row, so
/// none; a thread-per-row kernel, any row that can stop early at all.
/// Kept with the structure's profile, so a caller reads it level after
/// level for the price of a memo lookup.
pub fn exit_rows<T: Scalar, D1: Scalar>(device: &Device<'_>, a: &CsrMatrix<D1>) -> Arc<[u64]> {
    Arc::clone(&profiled::<T, D1>(device, a).2.exits)
}

/// The k-stacked pull: one launch of `device`'s pull kernel over the rows
/// of `blockdiag(a, …, a)`, one diagonal block per member, member `r`'s
/// block pulling its own `u` under its own mask and early exits as
/// [`mxv`] takes them. Every member's rows start on a thread-block
/// boundary, so no warp or transaction segment spans two members, and the
/// launch's tally is the sum of the members' own over `a`'s one profile:
/// no stacked matrix or profile is built. HYB's overflow launches once
/// too, for every member's overflow. No member, no launch.
pub fn mxv_stacked<'m, T: Scalar, D1: Scalar>(
    device: &Device<'_>,
    a: &CsrMatrix<D1>,
    members: impl IntoIterator<Item = (Option<VecMask<'m>>, &'m [(usize, usize)])>,
) {
    let (c, key, profiled) = profiled::<T, D1>(device, a);
    let Profiled { profile, full, .. } = &*profiled;
    let (mut stacked, mut tally) = (0, KernelTally::default());
    for (mask, early) in members {
        stacked += 1;
        tally.merge(&match (mask, early) {
            (None, []) => *full,
            _ => profile.tally(&c, &key, a, mask, early),
        });
    }
    if stacked == 0 {
        return;
    }
    let name = match profile {
        SpmvProfile::Warps { lanes, .. } if lanes.ell => "spmv_ell",
        SpmvProfile::Warps { .. } => "spmv_csr_scalar",
        SpmvProfile::Vector { .. } => "spmv_csr_vector",
    };
    let blocks = a.nrows().div_ceil(BLOCK_DIM).max(1);
    device.charge_kernel(name, stacked * blocks, tally);
    if let SpmvProfile::Warps {
        overflow: Some((blocks, tally)),
        ..
    } = profile
    {
        let times = |x: u64| stacked as u64 * x;
        let overflow = KernelTally {
            warp_instructions: times(tally.warp_instructions),
            mem_transactions: times(tally.mem_transactions),
            atomic_ops: times(tally.atomic_ops),
        };
        device.charge_kernel("spmv_coo_overflow", stacked * blocks, overflow);
    }
}

/// The warps of a thread-per-row kernel over one structure, in launch
/// order, as lane masks: bit `l` of a mask is the warp's `l`-th row. A
/// mask stands for one transaction segment of one load and holds the
/// lanes whose address falls in it, so a warp-step's transactions for a
/// set of live lanes are the masks that meet it.
#[derive(Debug, Default)]
struct LaneMasks {
    /// Whether the warps walk ELL slots (the scalar kernel's walk rows).
    ell: bool,
    warps: Vec<Warp>,
    /// Per step of every warp, in order: the lanes whose row has an entry
    /// (scalar) or a filled slot (ELL) at it, and where its masks end in
    /// `masks` (they start where the step before ended, the first step's
    /// where its warp's result masks end).
    steps: Vec<(u64, usize)>,
    masks: Vec<u64>,
}

/// One warp of a [`LaneMasks`] profile.
#[derive(Debug)]
struct Warp {
    /// The warp's first row.
    first: usize,
    /// Every lane: one per row.
    lanes: u64,
    /// Its row-pointer masks, then from `out` its result masks.
    heads: Range<usize>,
    out: usize,
    /// Its entries of `steps`: scalar, one per entry of its longest row;
    /// ELL, one per slot.
    steps: Range<usize>,
    /// Its `(instructions, transactions)` with every lane kept and walked
    /// to its end.
    whole: (u64, u64),
}

/// The lanes of `len` rows.
#[inline]
fn lane_bits(len: usize) -> u64 {
    u64::MAX >> (MAX_LANES - len)
}

/// The set bits of `bits`, lowest first.
fn ones(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (bits != 0).then(|| bits.trailing_zeros() as usize);
        bits &= bits.wrapping_sub(1);
        bit
    })
}

impl LaneMasks {
    /// The warps of the scalar kernel (`ell` none) or of ELL over `ell`
    /// slots, over `a`: per warp, the segments of its row-pointer loads and
    /// result store, then per step the lanes whose row has an entry there
    /// and the segments of the column, value and `u` loads — the scalar
    /// kernel's at entry `s` of each of those rows, ELL's column and value
    /// loads at slot `s` of every row (column-major, pad or not) and its
    /// `u` gather at the filled slots.
    fn build<D1: Scalar>(
        c: &Coalescer,
        a: &CsrMatrix<D1>,
        key: &ProfileKey,
        ell: Option<usize>,
    ) -> Self {
        let ws = key.warp_size;
        assert!(
            ws <= MAX_LANES,
            "GpuConfig::warp_size {ws} exceeds the {MAX_LANES} lanes a u64 lane mask holds"
        );
        let (n, row_ptr, col_idx) = (a.nrows(), a.row_ptr(), a.col_idx());
        let mut profile = LaneMasks {
            ell: ell.is_some(),
            ..LaneMasks::default()
        };
        let mut segs = Vec::with_capacity(ws);
        // one mask per transaction segment that the loads of `elem`-byte
        // elements by `lanes`, `(lane, element index)`, touch
        let mut group = |masks: &mut Vec<u64>, elem, lanes: &mut dyn Iterator<Item = _>| {
            segs.clear();
            segs.extend(lanes.map(|(l, i): (usize, usize)| (c.segment_of(elem, i), l)));
            segs.sort_unstable();
            let mut last = None;
            for &(seg, l) in &segs {
                if last != Some(seg) {
                    masks.push(0);
                    last = Some(seg);
                }
                *masks.last_mut().expect("a mask per segment") |= 1 << l;
            }
        };
        for row0 in (0..n).step_by(BLOCK_DIM) {
            let block_end = (row0 + BLOCK_DIM).min(n);
            for first in (row0..block_end).step_by(ws) {
                let rows = first..(first + ws).min(block_end);
                let lanes = || rows.clone().enumerate();
                let masks = &mut profile.masks;
                let start = masks.len();
                group(masks, 8, &mut lanes());
                let out = masks.len();
                group(masks, key.u_sz, &mut lanes());
                let heads = start..masks.len();
                let longest = rows.clone().map(|r| a.row_nnz(r)).max().unwrap_or(0);
                let first_step = profile.steps.len();
                for s in 0..ell.unwrap_or(longest) {
                    let filled = || lanes().filter(|&(_, r)| row_ptr[r] + s < row_ptr[r + 1]);
                    let entry = |(l, r): (usize, usize)| (l, row_ptr[r] + s);
                    for elem in [8, key.val_sz] {
                        match ell {
                            None => group(masks, elem, &mut filled().map(entry)),
                            Some(_) => {
                                group(masks, elem, &mut lanes().map(|(l, r)| (l, s * n + r)))
                            }
                        }
                    }
                    let column = |(l, p): (usize, usize)| (l, col_idx[p]);
                    group(masks, key.u_sz, &mut filled().map(entry).map(column));
                    let long = filled().fold(0, |bits, (l, _)| bits | 1 << l);
                    profile.steps.push((long, masks.len()));
                }
                let mut warp = Warp {
                    first,
                    lanes: lane_bits(rows.len()),
                    heads,
                    out,
                    steps: first_step..profile.steps.len(),
                    whole: (0, 0),
                };
                warp.whole = profile.charge(&warp, warp.lanes, &[]);
                profile.warps.push(warp);
            }
        }
        profile
    }

    /// The kernel's charge for the rows `mask` keeps, the scalar kernel's
    /// walked to their end but the rows `early` lists; ELL walks every slot
    /// of a kept row whatever the row did.
    fn tally(&self, mask: Option<VecMask<'_>>, mut early: &[(usize, usize)]) -> KernelTally {
        let (mut instrs, mut txns, mut ends) = (0, 0, vec![]);
        for warp in &self.warps {
            let end = warp.first + warp.lanes.count_ones() as usize;
            let exits;
            (exits, early) = early.split_at(early.iter().take_while(|&&(r, _)| r < end).count());
            let kept = mask.map_or(warp.lanes, |m| keep_bits(m, warp.first, warp.lanes));
            let (i, t) = match (self.ell || exits.is_empty(), kept == warp.lanes) {
                (true, true) => warp.whole,
                (true, false) => self.charge(warp, kept, &[]),
                (false, _) => {
                    ends.clear();
                    ends.resize(warp.steps.len(), 0);
                    for &(r, walked) in exits {
                        if let Some(lanes) = ends.get_mut(walked) {
                            *lanes |= 1 << (r - warp.first);
                        }
                    }
                    self.charge(warp, kept, &ends)
                }
            };
            instrs += i;
            txns += t;
        }
        KernelTally {
            warp_instructions: instrs,
            mem_transactions: txns,
            atomic_ops: 0,
        }
    }

    /// `warp`'s `(instructions, transactions)` with `kept` lanes, of which
    /// those in `ends[s]` stop before step `s` (the scalar kernel's early
    /// exits). A scalar warp: two row-pointer loads and a result store over
    /// the kept lanes, then a warp-step while a live lane — kept, not
    /// stopped, its row long enough — is left, its loads' transactions the
    /// masks the live lanes meet. An ELL warp: the result store, then every
    /// slot's column and value loads over the kept lanes and two ALU
    /// instructions, plus the `u` gather where a kept row fills the slot.
    fn charge(&self, warp: &Warp, kept: u64, ends: &[u64]) -> (u64, u64) {
        if kept == 0 {
            return (0, 0);
        }
        let meets = |masks: &[u64], live: u64| -> u64 {
            masks.iter().map(|&m| u64::from(m & live != 0)).sum()
        };
        let ptr = &self.masks[warp.heads.start..warp.out];
        let out = &self.masks[warp.out..warp.heads.end];
        let steps = &self.steps[warp.steps.clone()];
        let (mut instrs, mut txns) = match self.ell {
            true => (1 + 4 * steps.len() as u64, meets(out, kept)),
            false => (3, 2 * meets(ptr, kept) + meets(out, kept)),
        };
        let (mut live, mut at) = (kept, warp.heads.end);
        for (s, &(long, end)) in steps.iter().enumerate() {
            let masks = &self.masks[at..end];
            at = end;
            if self.ell {
                instrs += u64::from(kept & long != 0);
                txns += meets(masks, kept);
                continue;
            }
            live &= !ends.get(s).copied().unwrap_or(0);
            if live & long == 0 {
                break;
            }
            instrs += STEP_INSTRS;
            txns += meets(masks, live);
        }
        (instrs, txns)
    }
}

/// The keep bits `mask` holds for the rows from `first` under `lanes`, bit
/// `l` for row `first + l`, read from one or two words of 64 rows.
#[inline]
fn keep_bits(mask: VecMask<'_>, first: usize, lanes: u64) -> u64 {
    let (w, off) = (first / MAX_LANES, first % MAX_LANES);
    let mut bits = mask.keep_word(w) >> off;
    if off > 0 && lanes >> (MAX_LANES - off) != 0 {
        bits |= mask.keep_word(w + 1) << (MAX_LANES - off);
    }
    bits & lanes
}

/// The warp-per-row kernel's charge. Per row the mask keeps and that has
/// entries: the row pointer pair by lane 0; a warp-wide stride at a time,
/// coalesced column and value loads, the `u` gather at the stride's columns
/// and two ALU instructions, up to the stride in which its walk ended; the
/// warp's shuffle reduction; one store. A row's transactions are its
/// profile entry for the strides it walked. A block of 64 rows is charged
/// its sums less the rows the mask drops and the early exits' shortfall,
/// or row by row over the rows it keeps, whichever are fewer.
fn spmv_vector(
    c: &Coalescer,
    key: &ProfileKey,
    row_ptr: &[usize],
    (txns, blocks): (&[u64], &[RowBlock]),
    mask: Option<VecMask<'_>>,
    mut early: &[(usize, usize)],
) -> KernelTally {
    let ws = key.warp_size;
    // pointer load, shuffle reduction of one warp (`BlockCtx::block_reduce`
    // of at most a warp of lanes) and the store
    let lg = u64::from(usize::BITS - (ws.max(2) - 1).leading_zeros());
    let row_instrs = 1 + (lg + 1) + 1;
    // `x / ws`, a shift for the power-of-two warps every device model has
    let shift = ws.is_power_of_two().then(|| ws.trailing_zeros());
    let per_warp = |x: usize| match shift {
        Some(s) => x >> s,
        None => x / ws,
    };
    // a row's strides and transactions when it walks `walked` entries; a
    // walk of no stride (a row that walked nothing) pays the base
    let cost = |r: usize, walked: usize| {
        let k = per_warp(walked + ws - 1);
        let t = match k {
            0 => row_base(c, r),
            // `stride_slot(r) + k - 1`
            k => txns[r + per_warp(row_ptr[r]) + k - 1],
        };
        (k as u64, t)
    };
    let len = |r: usize| row_ptr[r + 1] - row_ptr[r];
    let (mut rows, mut strides, mut row_txns) = (0u64, 0u64, 0u64);
    for (b, block) in blocks.iter().enumerate() {
        let row0 = 64 * b;
        let exits;
        (exits, early) = early.split_at(early.iter().take_while(|&&(r, _)| r < row0 + 64).count());
        let kept = mask.map_or(block.nonempty, |m| m.keep_word(b) & block.nonempty);
        let dropped = block.nonempty & !kept;
        rows += u64::from(kept.count_ones());
        if kept.count_ones() <= dropped.count_ones() {
            let mut exits = exits.iter().peekable();
            for r in ones(kept).map(|l| row0 + l) {
                while exits.next_if(|&&(row, _)| row < r).is_some() {}
                let walked = exits
                    .next_if(|&&(row, _)| row == r)
                    .map_or(len(r), |&(_, w)| w);
                let (k, t) = cost(r, walked);
                strides += k;
                row_txns += t;
            }
        } else {
            strides += block.strides;
            row_txns += block.txns;
            for r in ones(dropped).map(|l| row0 + l) {
                let (k, t) = cost(r, len(r));
                strides -= k;
                row_txns -= t;
            }
            for &(r, walked) in exits.iter().filter(|&&(r, _)| kept >> (r - row0) & 1 == 1) {
                let ((k_full, t_full), (k, t)) = (cost(r, len(r)), cost(r, walked));
                strides -= k_full - k;
                row_txns -= t_full - t;
            }
        }
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
    use gbtl_sparse::{CooMatrix, DenseVector};

    /// A mask vector holding the positions `keep` sets.
    fn kept(keep: &[bool]) -> DenseVector<bool> {
        let mut mask = DenseVector::new(keep.len());
        (0..keep.len())
            .filter(|&i| keep[i])
            .for_each(|i| mask.set(i, true));
        mask
    }

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
        let keep = kept(&[true, false, true, false]);
        let profiles = SpmvProfiles::new();
        let mask = Some(VecMask::new(&keep, false));
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

    /// One stacked launch is charged the members' own tallies summed, and
    /// HYB's overflow once for all of them: what the members' separate
    /// pulls charge, less their extra launches.
    #[test]
    fn a_stacked_pull_sums_its_members_in_one_launch() {
        let mut coo = CooMatrix::new(70, 70);
        for j in 0..40 {
            coo.push(3, j, 1i64);
        }
        for r in 0..70 {
            coo.push(r, (r * 7) % 70, 1);
        }
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let keep = kept(&(0..70).map(|r| r % 3 == 0).collect::<Vec<_>>());
        let skip = [0x9249_2492_4924_9249u64, 0b10_0100];
        let exits = [(3usize, 2usize)];
        let members = [
            (None, &[][..]),
            (Some(VecMask::new(&keep, false)), &exits[..]),
            (Some(VecMask::unset_bits(&skip, 70)), &[][..]),
        ];
        let profiles = SpmvProfiles::new();
        for kernel in [SpmvKernel::Scalar, SpmvKernel::Vector, SpmvKernel::Hyb] {
            let device = |gpu| Device {
                gpu,
                spmv_kernel: kernel,
                spmv_profiles: &profiles,
            };
            let (solo, stacked) = (Gpu::with_trace(Default::default()), Gpu::default());
            for (mask, early) in members {
                mxv::<i64, i64>(&device(&solo), &a, mask, early);
            }
            mxv_stacked::<i64, i64>(&device(&stacked), &a, members);
            let (solo, stacked) = (solo.stats(), stacked.stats());
            let launches = if kernel == SpmvKernel::Hyb { 2 } else { 1 };
            assert_eq!(solo.kernels_launched, 3 * launches as u64, "{kernel:?}");
            assert_eq!(stacked.kernels_launched, launches as u64, "{kernel:?}");
            let counts = |s: &gbtl_gpu_sim::GpuStats| {
                (s.warp_instructions, s.mem_transactions, s.atomic_ops)
            };
            assert_eq!(counts(&solo), counts(&stacked), "{kernel:?}");
            // each stacked launch is one roofline over its members' summed
            // tallies, so it pays one launch overhead where they paid three
            let summed: u64 = (0..launches)
                .map(|i| {
                    let mut sum = KernelTally::default();
                    for k in solo.kernel_log.iter().skip(i).step_by(launches) {
                        sum.merge(&k.tally);
                    }
                    Gpu::default().kernel_ps(&sum)
                })
                .sum();
            assert_eq!(stacked.modeled_ps, summed, "{kernel:?}");
            assert!(stacked.modeled_ps < solo.modeled_ps, "{kernel:?}");
            let none = Gpu::default();
            mxv_stacked::<i64, i64>(&device(&none), &a, []);
            assert_eq!(none.stats().kernels_launched, 0, "no member, no launch");
        }
    }

    /// An early exit on a row [`exit_rows`] leaves out moves no charge, and
    /// one on a row it holds does.
    #[test]
    fn an_exit_off_the_exit_rows_moves_no_charge() {
        let mut coo = CooMatrix::new(8, 128);
        for (r, len) in [(0, 2), (1, 32), (2, 33), (5, 100)] {
            for j in 0..len {
                coo.push(r, j, 1i64);
            }
        }
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let all = [(0, 1), (1, 1), (2, 1), (5, 1)];
        let profiles = SpmvProfiles::new();
        for (kernel, held) in [
            (SpmvKernel::Scalar, 0b10_0111),
            (SpmvKernel::Vector, 0b10_0100),
            (SpmvKernel::Ell, 0),
            (SpmvKernel::Hyb, 0),
        ] {
            let device = |gpu| Device {
                gpu,
                spmv_kernel: kernel,
                spmv_profiles: &profiles,
            };
            let (every, held_only, none) = (Gpu::default(), Gpu::default(), Gpu::default());
            let rows = exit_rows::<i64, i64>(&device(&every), &a);
            assert_eq!(&*rows, &[held], "{kernel:?}");
            let kept: Vec<_> = all
                .into_iter()
                .filter(|&(r, _)| held >> r & 1 == 1)
                .collect();
            mxv::<i64, i64>(&device(&every), &a, None, &all);
            mxv::<i64, i64>(&device(&held_only), &a, None, &kept);
            mxv::<i64, i64>(&device(&none), &a, None, &[]);
            assert_eq!(every.stats(), held_only.stats(), "{kernel:?}");
            assert_eq!(every.stats() != none.stats(), held != 0, "{kernel:?}");
        }
    }

    #[test]
    #[should_panic(expected = "GpuConfig::warp_size 65 exceeds the 64 lanes")]
    fn a_warp_wider_than_a_lane_mask_is_refused() {
        let gpu = Gpu::new(gbtl_gpu_sim::GpuConfig {
            warp_size: 65,
            ..Default::default()
        });
        pull(&gpu, &adj(), SpmvKernel::Scalar, None, &SpmvProfiles::new());
    }

    #[test]
    fn a_masked_push_resolves_the_mask_first() {
        let gpu = Gpu::with_trace(Default::default());
        let a = adj();
        let mut u = SparseVector::new(4);
        u.set(3, 1i64);
        let keep = kept(&[false, true, false, false]);
        let mask = Some(VecMask::new(&keep, false));
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
