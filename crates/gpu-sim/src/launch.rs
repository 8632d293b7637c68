//! Kernel launches and the per-block SIMT accounting context.
//!
//! A "kernel" here is a closure executed once per thread block. The
//! simulator follows one rule: **execute natively, charge analytically** —
//! the closure computes its block's result as plain host code, and narrates
//! its memory behaviour to a [`BlockCtx`] at *warp-step* granularity: each
//! [`BlockCtx::warp_read`] call is one lockstep memory instruction by up to
//! `warp_size` lanes, and the context counts how many 128-byte transactions
//! the lane addresses coalesce into. This is exactly the quantity the
//! hardware's memory controller sees, and it is what separates the scalar
//! (thread-per-row) and vector (warp-per-row) SpMV kernels in experiment
//! R-A1. The count is arithmetic over borrowed index slices — nothing is
//! allocated per step, and blocks run as a plain loop in block order.

use crate::{Gpu, GpuConfig, KernelTally};

/// Maps byte addresses to transaction segments and counts the distinct
/// segments one warp-step touches — the arithmetic behind every
/// transaction the device is charged. A kernel that narrates in closed form
/// counts through this instead of a [`BlockCtx`], so its numbers are the
/// same ones a lane-by-lane narration gets (a 96-byte transaction included).
#[derive(Debug, Clone, Copy)]
pub struct Coalescer {
    txn_bytes: u64,
    /// `log2(txn_bytes)` when the transaction size is a power of two.
    shift: Option<u32>,
}

impl Coalescer {
    /// The segment mapping of `config`'s transaction size.
    pub fn new(config: &GpuConfig) -> Self {
        let txn_bytes = config.mem_transaction_bytes as u64;
        Self {
            txn_bytes,
            shift: txn_bytes
                .is_power_of_two()
                .then(|| txn_bytes.trailing_zeros()),
        }
    }

    /// The transaction segment holding byte address `byte`.
    #[inline(always)]
    fn segment(&self, byte: u64) -> u64 {
        match self.shift {
            Some(s) => byte >> s,
            None => byte / self.txn_bytes,
        }
    }

    /// The segment of element `i` of a buffer of `elem_bytes`-byte elements.
    #[inline(always)]
    pub fn segment_of(&self, elem_bytes: usize, i: usize) -> u64 {
        self.segment(i as u64 * elem_bytes as u64)
    }

    /// Distinct segments among the lanes of one warp-step. Non-decreasing
    /// lane indices (a sorted CSR row) have non-decreasing segments, so the
    /// count is the number of changes; any other order sorts the (at most
    /// a warp of) segments in `scratch` and counts runs. The count is the
    /// same either way.
    #[inline]
    pub fn distinct_segments(
        &self,
        elem_bytes: usize,
        lanes: &[usize],
        scratch: &mut Vec<u64>,
    ) -> u64 {
        let (mut count, mut last, mut prev) = (0u64, None, 0usize);
        for &i in lanes {
            if i < prev {
                scratch.clear();
                scratch.extend(lanes.iter().map(|&i| self.segment_of(elem_bytes, i)));
                return Self::count_distinct(scratch);
            }
            let seg = Some(self.segment_of(elem_bytes, i));
            count += u64::from(seg != last);
            (last, prev) = (seg, i);
        }
        count
    }

    /// Distinct values among `segments` (a warp-step's, in any order),
    /// which it sorts: at most a warp of them, so sorting and counting runs
    /// beats searching the ones seen so far.
    pub fn count_distinct(segments: &mut [u64]) -> u64 {
        segments.sort_unstable();
        let mut count = u64::from(!segments.is_empty());
        for pair in segments.windows(2) {
            count += u64::from(pair[0] != pair[1]);
        }
        count
    }

    /// Distinct segments touched by the consecutive elements `lo..hi`:
    /// every segment between the first and the last start address when
    /// elements are no wider than a transaction, one per element otherwise.
    #[inline]
    pub fn run_segments(&self, elem_bytes: usize, lo: usize, hi: usize) -> u64 {
        if hi <= lo {
            return 0;
        }
        let e = elem_bytes as u64;
        if e > self.txn_bytes {
            return (hi - lo) as u64;
        }
        self.segment((hi as u64 - 1) * e) - self.segment(lo as u64 * e) + 1
    }
}

/// Per-block accounting context handed to kernel closures.
#[derive(Debug)]
pub struct BlockCtx {
    warp_size: usize,
    coalescer: Coalescer,
    tally: KernelTally,
    /// Scratch for unsorted lanes' segments (bounded by `warp_size`).
    seen: Vec<u64>,
}

impl BlockCtx {
    fn new(config: &GpuConfig) -> Self {
        Self {
            warp_size: config.warp_size,
            coalescer: Coalescer::new(config),
            tally: KernelTally::default(),
            seen: Vec::with_capacity(config.warp_size),
        }
    }

    /// Lanes per warp on this device.
    #[inline]
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// Charge `n` pure-ALU warp instructions.
    #[inline]
    pub fn instr(&mut self, n: u64) {
        self.tally.warp_instructions += n;
    }

    /// Charge `n` atomic read-modify-write operations.
    #[inline]
    pub fn atomic(&mut self, n: u64) {
        self.tally.atomic_ops += n;
        self.tally.warp_instructions += n.div_ceil(self.warp_size as u64);
    }

    /// One warp-step global *load*: each active lane reads element
    /// `lane_elem_idx[lane]` (element size `elem_bytes`) from one buffer —
    /// pass the index array itself (a slice of a CSR row's columns, say).
    /// Transactions charged = distinct 128-byte segments among the lanes.
    /// Fewer active lanes than `warp_size` models divergence: the
    /// instruction still issues once.
    #[inline]
    pub fn warp_read(&mut self, elem_bytes: usize, lane_elem_idx: &[usize]) {
        debug_assert!(lane_elem_idx.len() <= self.warp_size);
        self.tally.warp_instructions += 1;
        self.tally.mem_transactions +=
            self.coalescer
                .distinct_segments(elem_bytes, lane_elem_idx, &mut self.seen);
    }

    /// One warp-step global *store*; same accounting as [`BlockCtx::warp_read`].
    #[inline]
    pub fn warp_write(&mut self, elem_bytes: usize, lane_elem_idx: &[usize]) {
        self.warp_read(elem_bytes, lane_elem_idx);
    }

    /// [`BlockCtx::warp_read`] of the consecutive elements `lo..hi`, in
    /// closed form: what a warp streaming one CSR row's entries issues.
    #[inline]
    pub fn warp_read_run(&mut self, elem_bytes: usize, lo: usize, hi: usize) {
        debug_assert!(hi.saturating_sub(lo) <= self.warp_size);
        self.tally.warp_instructions += 1;
        self.tally.mem_transactions += self.coalescer.run_segments(elem_bytes, lo, hi);
    }

    /// Bulk perfectly-coalesced stream of `elems` elements of `elem_bytes`
    /// each, read or written: the cost of a `memcpy`-shaped access pattern.
    pub fn stream(&mut self, elems: usize, elem_bytes: usize) {
        let bytes = (elems * elem_bytes) as u64;
        self.tally.mem_transactions += bytes.div_ceil(self.coalescer.txn_bytes);
        self.tally.warp_instructions += (elems as u64).div_ceil(self.warp_size as u64);
    }

    /// A block-wide tree reduction over `elems` values held by the block's
    /// threads (the shared-memory `__syncthreads()` collective, charged
    /// analytically: `elems/warp · log2(warp)`-ish instructions, no global
    /// traffic).
    pub fn block_reduce(&mut self, elems: usize) {
        if elems == 0 {
            return;
        }
        let warps = (elems as u64).div_ceil(self.warp_size as u64);
        let lg = usize::BITS - (self.warp_size.max(2) - 1).leading_zeros();
        self.tally.warp_instructions += warps * lg as u64 + warps;
    }

    /// Tally accumulated so far (used by nested helpers).
    #[inline]
    pub fn tally(&self) -> &KernelTally {
        &self.tally
    }
}

impl Gpu {
    /// Launch `blocks` thread blocks of kernel `f`; block `b` returns a
    /// value, and the per-block results come back in block order.
    ///
    /// Blocks run one after another on the calling thread and narrate to
    /// one [`BlockCtx`], charged once at the end of the launch; a kernel
    /// may keep scratch in its closure and reuse it from block to block.
    pub fn launch<R, F>(&self, name: &'static str, blocks: usize, mut f: F) -> Vec<R>
    where
        F: FnMut(usize, &mut BlockCtx) -> R,
    {
        let mut ctx = BlockCtx::new(self.config());
        let results = (0..blocks).map(|b| f(b, &mut ctx)).collect();
        self.charge_kernel(name, blocks, ctx.tally);
        results
    }

    /// Launch one block per `chunk`-sized slice of `out`; block `b` owns
    /// `out[b*chunk .. (b+1)*chunk]` exclusively (the standard
    /// output-partitioned CUDA kernel shape).
    pub fn launch_chunks<T, F>(&self, name: &'static str, out: &mut [T], chunk: usize, mut f: F)
    where
        F: FnMut(usize, &mut [T], &mut BlockCtx),
    {
        assert!(chunk > 0, "chunk size must be positive");
        let blocks = out.len().div_ceil(chunk).max(1);
        let mut ctx = BlockCtx::new(self.config());
        for (b, slice) in out.chunks_mut(chunk).enumerate() {
            f(b, slice, &mut ctx);
        }
        self.charge_kernel(name, blocks, ctx.tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuConfig;

    #[test]
    fn coalesced_warp_read_is_few_transactions() {
        let gpu = Gpu::new(GpuConfig::k40());
        gpu.launch("coalesced", 1, |_, ctx| {
            // 32 consecutive f64s = 256 bytes = 2 segments of 128B.
            let idxs: Vec<usize> = (0..32).collect();
            ctx.warp_read(8, &idxs);
        });
        let s = gpu.stats();
        assert_eq!(s.mem_transactions, 2);
        assert_eq!(s.warp_instructions, 1);
    }

    #[test]
    fn strided_warp_read_is_many_transactions() {
        let gpu = Gpu::new(GpuConfig::k40());
        gpu.launch("strided", 1, |_, ctx| {
            // 32 f64s, 1KB apart: every lane in its own segment.
            let idxs: Vec<usize> = (0..32).map(|i| i * 128).collect();
            ctx.warp_read(8, &idxs);
        });
        assert_eq!(gpu.stats().mem_transactions, 32);
    }

    #[test]
    fn divergent_warp_still_issues_one_instruction() {
        let gpu = Gpu::new(GpuConfig::k40());
        gpu.launch("divergent", 1, |_, ctx| {
            ctx.warp_read(8, &[0, 1]); // only 2 active lanes
        });
        let s = gpu.stats();
        assert_eq!(s.warp_instructions, 1);
        assert_eq!(s.mem_transactions, 1);
    }

    #[test]
    fn run_read_equals_the_lane_by_lane_read() {
        let gpu = Gpu::new(GpuConfig::k40());
        gpu.launch("run", 1, |_, ctx| ctx.warp_read_run(8, 10, 42));
        let run = gpu.stats();
        gpu.reset_stats();
        gpu.launch("lanes", 1, |_, ctx| {
            let idxs: Vec<usize> = (10..42).collect();
            ctx.warp_read(8, &idxs);
        });
        assert_eq!(run.mem_transactions, 3); // bytes 80..336 span segments 0, 1, 2
        assert_eq!(run, gpu.stats());
    }

    #[test]
    fn unsorted_lanes_count_each_segment_once() {
        let gpu = Gpu::new(GpuConfig {
            mem_transaction_bytes: 96,
            ..GpuConfig::k40()
        });
        gpu.launch("unsorted", 1, |_, ctx| {
            // 8-byte elements, 12 per 96-byte segment: segments 2, 0, 2, 1, 0
            ctx.warp_read(8, &[24, 0, 35, 12, 11]);
        });
        assert_eq!(gpu.stats().mem_transactions, 3);
    }

    /// The unsorted count this replaced: a linear search of the segments
    /// seen so far, O(lanes × distinct) a warp-step.
    fn linear_distinct(c: &Coalescer, elem_bytes: usize, lanes: &[usize]) -> u64 {
        let mut seen: Vec<u64> = Vec::new();
        for &i in lanes {
            let seg = c.segment_of(elem_bytes, i);
            if !seen.contains(&seg) {
                seen.push(seg);
            }
        }
        seen.len() as u64
    }

    #[test]
    fn sorting_count_equals_the_linear_search_on_random_lanes() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut scratch = Vec::new();
        for txn in [128, 96] {
            let c = Coalescer::new(&GpuConfig {
                mem_transaction_bytes: txn,
                ..GpuConfig::k40()
            });
            for _ in 0..2000 {
                let len = (next() % 33) as usize;
                let spread = [16, 400, 1 << 20][(next() % 3) as usize];
                let lanes: Vec<usize> = (0..len).map(|_| (next() % spread) as usize).collect();
                for elem in [1, 4, 8, 16, 24] {
                    assert_eq!(
                        c.distinct_segments(elem, &lanes, &mut scratch),
                        linear_distinct(&c, elem, &lanes),
                        "lanes {lanes:?}, {elem}-byte elements, {txn}-byte transactions"
                    );
                }
            }
        }
    }

    #[test]
    fn launch_returns_block_results_in_order() {
        let gpu = Gpu::default();
        let r = gpu.launch("order", 64, |b, ctx| {
            ctx.instr(1);
            b * 10
        });
        assert_eq!(r, (0..64).map(|b| b * 10).collect::<Vec<_>>());
        let s = gpu.stats();
        assert_eq!(s.kernels_launched, 1);
        assert_eq!(s.warp_instructions, 64);
    }

    #[test]
    fn launch_chunks_partitions_output() {
        let gpu = Gpu::default();
        let mut out = vec![0usize; 100];
        gpu.launch_chunks("chunks", &mut out, 32, |b, slice, ctx| {
            ctx.stream(slice.len(), 8);
            for (i, v) in slice.iter_mut().enumerate() {
                *v = b * 1000 + i;
            }
        });
        assert_eq!(out[0], 0);
        assert_eq!(out[33], 1001);
        assert_eq!(out[99], 3003);
        assert_eq!(gpu.stats().kernels_launched, 1);
    }

    #[test]
    fn stream_charges_bandwidth_shaped_cost() {
        let gpu = Gpu::default();
        gpu.launch("stream", 1, |_, ctx| ctx.stream(1024, 8));
        let s = gpu.stats();
        assert_eq!(s.mem_transactions, 8192 / 128);
        assert_eq!(s.warp_instructions, 1024 / 32);
    }

    #[test]
    fn block_reduce_charges_log_cost() {
        let gpu = Gpu::default();
        gpu.launch("reduce", 1, |_, ctx| ctx.block_reduce(256));
        let s = gpu.stats();
        // 8 warps * (log2(32)=5) + 8 = 48
        assert_eq!(s.warp_instructions, 48);
    }

    #[test]
    fn atomics_accumulate() {
        let gpu = Gpu::default();
        gpu.launch("atomics", 2, |_, ctx| ctx.atomic(100));
        assert_eq!(gpu.stats().atomic_ops, 200);
    }
}
