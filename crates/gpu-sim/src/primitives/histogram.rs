//! Histogram — the atomic-heavy primitive (COO→CSR row counting).

use super::CHUNK;
use crate::{Gpu, KernelTally};

/// Count occurrences of each bin index — the `atomicAdd` histogram kernel
/// ([`charge_histogram`]).
pub fn histogram(gpu: &Gpu, nbins: usize, idx: &[usize]) -> Vec<usize> {
    let mut out = vec![0usize; nbins];
    for &i in idx {
        out[i] += 1;
    }
    charge_histogram(gpu, nbins, idx.len());
    out
}

/// Charge the atomic histogram kernel over `n` indices into `nbins` bins:
/// one atomic per element plus coalesced reads.
pub fn charge_histogram(gpu: &Gpu, nbins: usize, n: usize) {
    let txn = gpu.config().mem_transaction_bytes as u64;
    let tally = KernelTally {
        warp_instructions: 2 * (n as u64).div_ceil(gpu.config().warp_size as u64),
        mem_transactions: ((n * std::mem::size_of::<usize>()) as u64).div_ceil(txn)
            + ((nbins * std::mem::size_of::<usize>()) as u64).div_ceil(txn),
        atomic_ops: n as u64,
    };
    gpu.charge_kernel("histogram", n.div_ceil(CHUNK).max(1), tally);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_bins() {
        let gpu = Gpu::default();
        let h = histogram(&gpu, 4, &[0, 1, 1, 3, 3, 3]);
        assert_eq!(h, vec![1, 2, 0, 3]);
    }

    #[test]
    fn histogram_charges_atomics() {
        let gpu = Gpu::default();
        let _ = histogram(&gpu, 2, &[0, 1, 0]);
        assert_eq!(gpu.stats().atomic_ops, 3);
    }

    #[test]
    fn histogram_empty() {
        let gpu = Gpu::default();
        assert_eq!(histogram(&gpu, 3, &[]), vec![0, 0, 0]);
    }

    #[test]
    fn histogram_large_is_deterministic() {
        let gpu = Gpu::default();
        let idx: Vec<usize> = (0..100_000).map(|i| (i * 31) % 57).collect();
        let a = histogram(&gpu, 57, &idx);
        let b = histogram(&gpu, 57, &idx);
        assert_eq!(a, b);
        assert_eq!(a.iter().sum::<usize>(), 100_000);
    }
}
