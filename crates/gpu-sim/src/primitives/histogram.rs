//! Histogram — the atomic-heavy primitive (COO→CSR row counting).

use super::CHUNK;
use crate::{Gpu, KernelTally};

/// Charge the `atomicAdd` histogram kernel over `n` indices into `nbins`
/// bins: one atomic per element plus coalesced reads.
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
    fn histogram_charges_atomics() {
        let gpu = Gpu::default();
        charge_histogram(&gpu, 2, 3);
        assert_eq!(gpu.stats().atomic_ops, 3);
    }
}
