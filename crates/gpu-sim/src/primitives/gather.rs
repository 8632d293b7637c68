//! Gather, scatter, and vectorised binary search.

use std::borrow::Borrow;

use super::{gather_transactions, stream_instrs, CHUNK};
use crate::{Gpu, KernelTally};

/// `out[i] = src[idx[i]]` — Thrust `gather`.
///
/// Cost is *data-dependent* ([`charge_gather`]): the index stream is read
/// coalesced and the output written coalesced, but the loads from `src` are
/// charged by the actual coalescing of the index pattern. Sequential
/// indices cost `n·size/128` transactions; random indices cost ~`n`.
pub fn gather<T: Copy>(gpu: &Gpu, idx: &[usize], src: &[T]) -> Vec<T> {
    let out: Vec<T> = idx.iter().map(|&i| src[i]).collect();
    charge_gather::<T>(gpu, idx);
    out
}

/// Charge a `gather` of `T` elements at the index stream `idx` — for a
/// backend that reads the gathered values inside a fused pass instead of
/// materialising them (`idx` may be any iterator; it is walked once).
pub fn charge_gather<T>(gpu: &Gpu, idx: impl IntoIterator<Item = impl Borrow<usize>>) {
    let elem = std::mem::size_of::<T>();
    let (src_txns, n) = gather_transactions(gpu, idx, elem);
    let txn = gpu.config().mem_transaction_bytes as u64;
    let tally = KernelTally {
        warp_instructions: 3 * stream_instrs(gpu, n),
        mem_transactions: ((n * std::mem::size_of::<usize>()) as u64).div_ceil(txn)
            + src_txns
            + ((n * elem) as u64).div_ceil(txn),
        atomic_ops: 0,
    };
    gpu.charge_kernel("gather", n.div_ceil(CHUNK).max(1), tally);
}

/// `dst[idx[i]] = src[i]` — Thrust `scatter`.
///
/// Indices must be unique (the CUDA kernel would otherwise be racy); this is
/// checked in debug builds. The stores are charged by index coalescing,
/// mirroring [`gather`].
pub fn scatter<T: Copy>(gpu: &Gpu, idx: &[usize], src: &[T], dst: &mut [T]) {
    assert_eq!(idx.len(), src.len(), "idx/src length mismatch");
    #[cfg(debug_assertions)]
    {
        let mut seen = vec![false; dst.len()];
        for &i in idx {
            assert!(!seen[i], "scatter index {i} duplicated (racy on a GPU)");
            seen[i] = true;
        }
    }
    // Host-side sequential write: the simulator's functional result; the
    // modeled cost below is the parallel kernel's.
    for (&i, &v) in idx.iter().zip(src) {
        dst[i] = v;
    }
    let n = idx.len();
    let elem = std::mem::size_of::<T>();
    let txn = gpu.config().mem_transaction_bytes as u64;
    let tally = KernelTally {
        warp_instructions: 3 * stream_instrs(gpu, n),
        mem_transactions: ((n * (std::mem::size_of::<usize>() + elem)) as u64).div_ceil(txn)
            + gather_transactions(gpu, idx, elem).0,
        atomic_ops: 0,
    };
    gpu.charge_kernel("scatter", n.div_ceil(CHUNK).max(1), tally);
}

/// For each needle, the first position in sorted `haystack` not less than
/// it — Thrust `lower_bound` (vectorised binary search).
///
/// Cost: each needle walks `log2(h)` uncoalesced probes.
pub fn lower_bound<K: Ord>(gpu: &Gpu, haystack: &[K], needles: &[K]) -> Vec<usize> {
    let out: Vec<usize> = needles
        .iter()
        .map(|k| haystack.partition_point(|h| h < k))
        .collect();
    let n = needles.len();
    let probes = (haystack.len().max(2) as f64).log2().ceil() as u64;
    let txn = gpu.config().mem_transaction_bytes as u64;
    let kb = std::mem::size_of::<K>();
    let tally = KernelTally {
        warp_instructions: (1 + probes) * stream_instrs(gpu, n),
        // every probe is its own transaction (tree hops don't coalesce)
        mem_transactions: n as u64 * probes
            + ((n * kb) as u64).div_ceil(txn)
            + ((n * std::mem::size_of::<usize>()) as u64).div_ceil(txn),
        atomic_ops: 0,
    };
    gpu.charge_kernel("lower_bound", n.div_ceil(CHUNK).max(1), tally);
    out
}

/// `dst[i] = op(dst[i], src[i])` for gathered positions:
/// `dst[idx[i]] = op(dst[idx[i]], src[i])` with unique indices.
pub fn scatter_combine<T, F>(gpu: &Gpu, idx: &[usize], src: &[T], dst: &mut [T], op: F)
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    assert_eq!(idx.len(), src.len(), "idx/src length mismatch");
    #[cfg(debug_assertions)]
    {
        let mut seen = vec![false; dst.len()];
        for &i in idx {
            assert!(!seen[i], "scatter index {i} duplicated (racy on a GPU)");
            seen[i] = true;
        }
    }
    for (&i, &v) in idx.iter().zip(src) {
        dst[i] = op(dst[i], v);
    }
    let n = idx.len();
    let elem = std::mem::size_of::<T>();
    let txn = gpu.config().mem_transaction_bytes as u64;
    let tally = KernelTally {
        warp_instructions: 4 * stream_instrs(gpu, n),
        // read-modify-write: gather pattern charged twice
        mem_transactions: ((n * (std::mem::size_of::<usize>() + elem)) as u64).div_ceil(txn)
            + 2 * gather_transactions(gpu, idx, elem).0,
        atomic_ops: 0,
    };
    gpu.charge_kernel("scatter_combine", n.div_ceil(CHUNK).max(1), tally);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_permutes() {
        let gpu = Gpu::default();
        let out = gather(&gpu, &[2, 0, 1], &[10, 20, 30]);
        assert_eq!(out, vec![30, 10, 20]);
    }

    #[test]
    fn scatter_inverts_gather() {
        let gpu = Gpu::default();
        let mut dst = vec![0; 3];
        scatter(&gpu, &[2, 0, 1], &[30, 10, 20], &mut dst);
        assert_eq!(dst, vec![10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "duplicated")]
    #[cfg(debug_assertions)]
    fn scatter_rejects_duplicate_indices() {
        let gpu = Gpu::default();
        let mut dst = vec![0; 3];
        scatter(&gpu, &[1, 1], &[5, 6], &mut dst);
    }

    #[test]
    fn lower_bound_finds_insertion_points() {
        let gpu = Gpu::default();
        let hay = [10, 20, 20, 30];
        let out = lower_bound(&gpu, &hay, &[5, 10, 20, 25, 35]);
        assert_eq!(out, vec![0, 0, 1, 3, 4]);
    }

    #[test]
    fn scatter_combine_applies_op() {
        let gpu = Gpu::default();
        let mut dst = vec![100, 200, 300];
        scatter_combine(&gpu, &[0, 2], &[1, 3], &mut dst, |a, b| a + b);
        assert_eq!(dst, vec![101, 200, 303]);
    }

    #[test]
    fn random_gather_costs_more_than_sequential() {
        let gpu = Gpu::default();
        let src = vec![0u64; 4096];
        let seq: Vec<usize> = (0..4096).collect();
        let _ = gather(&gpu, &seq, &src);
        let seq_txns = gpu.stats().mem_transactions;
        gpu.reset_stats();
        let strided: Vec<usize> = (0..4096).map(|i| (i * 97) % 4096).collect();
        let _ = gather(&gpu, &strided, &src);
        let rnd_txns = gpu.stats().mem_transactions;
        assert!(
            rnd_txns > 2 * seq_txns,
            "random gather ({rnd_txns}) should cost far more than sequential ({seq_txns})"
        );
    }
}
