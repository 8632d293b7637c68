//! Prefix sums — the load-bearing primitive of every compaction and build.

use super::{charge_streaming, stream_instrs, CHUNK};
use crate::Gpu;

/// Exclusive prefix "sum" with the monoid `(identity, op)` — Thrust
/// `exclusive_scan`. `out[i] = op(input[0], …, input[i-1])`, `out[0] =
/// identity`.
///
/// Charged as the classic two-phase blocked scan ([`charge_scan`]). The
/// device combines tile by tile where this pass folds left to right, so
/// `op` must be associative — a monoid, as every Thrust scan requires.
pub fn exclusive_scan<T, F>(gpu: &Gpu, input: &[T], identity: T, op: F) -> Vec<T>
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    let mut acc = identity;
    let out = input
        .iter()
        .map(|&x| {
            let before = acc;
            acc = op(acc, x);
            before
        })
        .collect();
    charge_scan::<T>(gpu, input.len());
    out
}

/// Charge a scan over `n` elements of `T`: per-tile totals (upsweep), then
/// the per-tile rescan with offsets (downsweep) — two bandwidth-shaped
/// kernels, the Thrust/CUB cost shape. The single-block scan of the tile
/// totals between them is negligible and rides in the downsweep.
pub fn charge_scan<T>(gpu: &Gpu, n: usize) {
    let bytes = (n * std::mem::size_of::<T>()) as u64;
    let blocks = n.div_ceil(CHUNK).max(1);
    charge_streaming(gpu, "scan_upsweep", blocks, bytes, 0, stream_instrs(gpu, n));
    charge_streaming(
        gpu,
        "scan_downsweep",
        blocks,
        bytes,
        bytes,
        2 * stream_instrs(gpu, n),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_scan_small() {
        let gpu = Gpu::default();
        let out = exclusive_scan(&gpu, &[1usize, 2, 3, 4], 0, |a, b| a + b);
        assert_eq!(out, vec![0, 1, 3, 6]);
    }

    #[test]
    fn scan_spans_multiple_tiles() {
        let gpu = Gpu::default();
        let n = CHUNK * 3 + 17;
        let ones = vec![1usize; n];
        let out = exclusive_scan(&gpu, &ones, 0, |a, b| a + b);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i);
        }
    }

    #[test]
    fn scan_empty() {
        let gpu = Gpu::default();
        assert!(exclusive_scan(&gpu, &[] as &[usize], 0, |a, b| a + b).is_empty());
    }

    #[test]
    fn scan_charges_two_kernels() {
        let gpu = Gpu::default();
        let _ = exclusive_scan(&gpu, &[1usize; 10], 0, |a, b| a + b);
        assert_eq!(gpu.stats().kernels_launched, 2);
    }
}
