//! Stream compaction: `copy_if` and friends.

use super::{charge_streaming, stream_instrs, CHUNK};
use crate::Gpu;

/// Keep elements satisfying `pred`, preserving order — Thrust `copy_if`.
///
/// Charged as the canonical flags → scan → scatter pipeline
/// ([`charge_compaction`]).
pub fn copy_if<T, F>(gpu: &Gpu, input: &[T], pred: F) -> Vec<T>
where
    T: Copy,
    F: Fn(&T) -> bool,
{
    let out: Vec<T> = input.iter().copied().filter(|v| pred(v)).collect();
    charge_compaction::<T>(gpu, input.len(), out.len());
    out
}

/// Like [`copy_if`] but the predicate sees the element index, and the kept
/// *indices* are returned alongside the values.
pub fn copy_if_indexed<T, F>(gpu: &Gpu, input: &[T], pred: F) -> (Vec<usize>, Vec<T>)
where
    T: Copy,
    F: Fn(usize, &T) -> bool,
{
    let (idx, vals): (Vec<usize>, Vec<T>) = input
        .iter()
        .enumerate()
        .filter(|(i, v)| pred(*i, v))
        .map(|(i, &v)| (i, v))
        .unzip();
    charge_compaction::<T>(gpu, input.len(), idx.len());
    (idx, vals)
}

/// Count elements satisfying `pred` — Thrust `count_if` (one reduce-shaped
/// kernel).
pub fn count_if<T, F>(gpu: &Gpu, input: &[T], pred: F) -> usize
where
    F: Fn(&T) -> bool,
{
    let n = input.len();
    let count = input.iter().filter(|v| pred(v)).count();
    charge_streaming(
        gpu,
        "count_if",
        n.div_ceil(CHUNK).max(1),
        (n * std::mem::size_of::<T>()) as u64,
        8,
        2 * stream_instrs(gpu, n),
    );
    count
}

/// Charge the compaction of `n` elements of `T` down to `kept`: flags, scan
/// of flags, scatter of survivors — three bandwidth-shaped kernels.
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
    fn copy_if_preserves_order() {
        let gpu = Gpu::default();
        let out = copy_if(&gpu, &[5, 2, 9, 4, 7], |&v| v > 4);
        assert_eq!(out, vec![5, 9, 7]);
    }

    #[test]
    fn copy_if_indexed_returns_positions() {
        let gpu = Gpu::default();
        let (idx, vals) = copy_if_indexed(&gpu, &[10, 0, 20, 0], |_, &v| v != 0);
        assert_eq!(idx, vec![0, 2]);
        assert_eq!(vals, vec![10, 20]);
    }

    #[test]
    fn count_if_counts() {
        let gpu = Gpu::default();
        assert_eq!(count_if(&gpu, &[1, 2, 3, 4], |&v| v % 2 == 0), 2);
    }

    #[test]
    fn compaction_charges_three_kernels() {
        let gpu = Gpu::default();
        let _ = copy_if(&gpu, &[1u8, 2, 3], |_| true);
        assert_eq!(gpu.stats().kernels_launched, 3);
    }

    #[test]
    fn empty_input() {
        let gpu = Gpu::default();
        assert!(copy_if(&gpu, &[] as &[u32], |_| true).is_empty());
        assert_eq!(count_if(&gpu, &[] as &[u32], |_| true), 0);
    }
}
