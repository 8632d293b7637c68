//! Thrust/CUSP-style data-parallel primitives as a charge vocabulary.
//!
//! GBTL-CUDA's backend is *compositions of these primitives* (its SpGEMM is
//! CUSP's expand-sort-compress, its COO→CSR build is a sort plus a
//! reduce-by-key, …). A backend here computes its result with the
//! sequential kernel and charges the device the pipeline it stands for,
//! stage by stage, through this vocabulary: each `charge_*` is arithmetic
//! over sizes (and, for gathers, over the index stream) yielding the
//! traffic/instruction budget of the CUDA kernel (documented per function).
//!
//! * [`map`] — `charge_transform`, `charge_zip_transform`
//! * [`reduce`] — `charge_reduce`, `charge_segmented_reduce`,
//!   `charge_reduce_by_key`
//! * [`scan`] — `charge_scan`
//! * [`sort`] — `charge_radix_sort`
//! * [`gather`] — `charge_gather`, and [`gather_cost`] for custom kernels
//! * [`compact`] — `charge_compaction`
//! * [`histogram`] — `charge_histogram`
//!
//! Three host passes remain, each one plain pass plus its own charge, for
//! the probes that time the simulator's host cost: [`sort_pairs`] (a stable
//! sort), [`exclusive_scan`] and [`reduce_by_key`].

pub mod compact;
pub mod gather;
pub mod histogram;
pub mod map;
pub mod reduce;
pub mod scan;
pub mod sort;

pub use reduce::reduce_by_key;
pub use scan::exclusive_scan;
pub use sort::sort_pairs;

use std::borrow::Borrow;

use crate::launch::Coalescer;
use crate::{Gpu, KernelTally};

/// Fixed work-chunk of the blocked primitives: one chunk plays the role of
/// one thread block's tile, so it sets their charged block counts.
pub(crate) const CHUNK: usize = 4096;

/// Charge one bandwidth-shaped primitive kernel: `read_bytes` + `write_bytes`
/// of perfectly-coalesced traffic and `instrs` warp instructions.
pub(crate) fn charge_streaming(
    gpu: &Gpu,
    name: &'static str,
    blocks: usize,
    read_bytes: u64,
    write_bytes: u64,
    instrs: u64,
) {
    let txn = gpu.config().mem_transaction_bytes as u64;
    let tally = KernelTally {
        warp_instructions: instrs,
        mem_transactions: read_bytes.div_ceil(txn) + write_bytes.div_ceil(txn),
        atomic_ops: 0,
    };
    gpu.charge_kernel(name, blocks, tally);
}

/// Warp instructions needed to stream `elems` elements.
pub(crate) fn stream_instrs(gpu: &Gpu, elems: usize) -> u64 {
    (elems as u64).div_ceil(gpu.config().warp_size as u64)
}

/// Estimate the global-memory transactions of a data-dependent gather with
/// the given index pattern — exposed so backends can charge custom kernels
/// whose loads follow an index stream they compute on the fly (any
/// iterator of indices; nothing is materialised).
pub fn gather_cost(
    gpu: &Gpu,
    idx: impl IntoIterator<Item = impl Borrow<usize>>,
    elem_bytes: usize,
) -> u64 {
    gather_transactions(gpu, idx, elem_bytes).0
}

/// Estimate the global-memory transactions of a data-dependent gather: group
/// indices into warp-sized runs (the lanes of one memory instruction) and
/// count distinct transaction segments per run. Returns the transactions
/// and the number of indices seen.
pub(crate) fn gather_transactions(
    gpu: &Gpu,
    idx: impl IntoIterator<Item = impl Borrow<usize>>,
    elem_bytes: usize,
) -> (u64, usize) {
    let warp = gpu.config().warp_size;
    let coalescer = Coalescer::new(gpu.config());
    let (mut lanes, mut seen) = (Vec::with_capacity(warp), Vec::new());
    let mut idx = idx.into_iter().map(|i| *i.borrow());
    let (mut txns, mut n) = (0u64, 0usize);
    loop {
        lanes.clear();
        lanes.extend(idx.by_ref().take(warp));
        txns += coalescer.distinct_segments(elem_bytes, &lanes, &mut seen);
        n += lanes.len();
        if lanes.len() < warp {
            return (txns, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuConfig;

    #[test]
    fn gather_transactions_coalesced_vs_random() {
        let gpu = Gpu::new(GpuConfig::k40());
        let seq: Vec<usize> = (0..1024).collect();
        let strided: Vec<usize> = (0..1024).map(|i| i * 64).collect();
        let (coalesced, n) = gather_transactions(&gpu, &seq, 8);
        let scattered = gather_cost(&gpu, strided.iter().copied(), 8);
        assert_eq!(n, 1024);
        // sequential f64: 2 segments per warp of 32 -> 64 total
        assert_eq!(coalesced, 64);
        // 512-byte stride: every lane its own segment -> 1024 total
        assert_eq!(scattered, 1024);
    }

    #[test]
    fn charge_streaming_accumulates() {
        let gpu = Gpu::default();
        charge_streaming(&gpu, "x", 1, 1280, 1280, 10);
        let s = gpu.stats();
        assert_eq!(s.mem_transactions, 20);
        assert_eq!(s.warp_instructions, 10);
        assert_eq!(s.kernels_launched, 1);
    }
}
