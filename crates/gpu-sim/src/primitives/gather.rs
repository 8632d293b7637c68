//! Gather — Thrust `gather`, `out[i] = src[idx[i]]`.

use std::borrow::Borrow;

use super::{gather_transactions, stream_instrs, CHUNK};
use crate::{Gpu, KernelTally};

/// Charge a `gather` of `T` elements at the index stream `idx` (any
/// iterator; it is walked once). The cost is *data-dependent*: the index
/// stream is read coalesced and the output written coalesced, but the
/// loads from `src` are charged by the actual coalescing of the index
/// pattern — sequential indices cost `n·size/128` transactions, random
/// ones ~`n`.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_gather_costs_more_than_sequential() {
        let gpu = Gpu::default();
        charge_gather::<u64>(&gpu, 0..4096);
        let seq_txns = gpu.stats().mem_transactions;
        gpu.reset_stats();
        charge_gather::<u64>(&gpu, (0..4096).map(|i| (i * 97) % 4096));
        let rnd_txns = gpu.stats().mem_transactions;
        assert!(
            rnd_txns > 2 * seq_txns,
            "random gather ({rnd_txns}) should cost far more than sequential ({seq_txns})"
        );
    }
}
