//! Stream compaction — Thrust `copy_if`.

use super::{charge_streaming, stream_instrs, CHUNK};
use crate::Gpu;

/// Charge the order-preserving compaction of `n` elements of `T` down to
/// `kept`: flags, scan of flags, scatter of survivors — three
/// bandwidth-shaped kernels.
pub fn charge_compaction<T>(gpu: &Gpu, n: usize, kept: usize) {
    let blocks = n.div_ceil(CHUNK).max(1);
    let eb = std::mem::size_of::<T>();
    // flags kernel: read input, write one flag byte each
    charge_streaming(
        gpu,
        "compact_flags",
        blocks,
        (n * eb) as u64,
        n as u64,
        2 * stream_instrs(gpu, n),
    );
    // scan of flags
    charge_streaming(
        gpu,
        "compact_scan",
        blocks,
        2 * n as u64 * std::mem::size_of::<usize>() as u64 / 8,
        (n * std::mem::size_of::<usize>()) as u64,
        2 * stream_instrs(gpu, n),
    );
    // scatter of survivors
    charge_streaming(
        gpu,
        "compact_scatter",
        blocks,
        (n * eb) as u64,
        (kept * eb) as u64,
        2 * stream_instrs(gpu, n),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_charges_three_kernels() {
        let gpu = Gpu::default();
        charge_compaction::<u8>(&gpu, 3, 3);
        assert_eq!(gpu.stats().kernels_launched, 3);
    }
}
