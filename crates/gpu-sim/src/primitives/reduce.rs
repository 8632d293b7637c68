//! Reductions: full, segmented, and by-key.

use super::{charge_streaming, stream_instrs, CHUNK};
use crate::Gpu;

/// Tree-reduce `input` with the monoid `(identity, op)` — Thrust `reduce`.
///
/// Deterministic: values are folded sequentially within fixed-size chunks
/// (one thread block's tile each) and the chunk partials are folded
/// sequentially in chunk order, so a float result is the blocked device
/// reduction's, identical run to run.
///
/// Cost: reads `n` elements once, `log`-depth combine charged as one extra
/// instruction per warp.
pub fn reduce<T, F>(gpu: &Gpu, input: &[T], identity: T, op: F) -> T
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    let result = input
        .chunks(CHUNK)
        .map(|chunk| chunk.iter().copied().fold(identity, &op))
        .fold(identity, &op);
    let n = input.len();
    charge_streaming(
        gpu,
        "reduce",
        n.div_ceil(CHUNK).max(1),
        (n * std::mem::size_of::<T>()) as u64,
        std::mem::size_of::<T>() as u64,
        2 * stream_instrs(gpu, n),
    );
    result
}

/// Reduce each segment `vals[offsets[s]..offsets[s+1]]` with the monoid —
/// CUSP's segmented reduction (CSR row reduce).
///
/// Empty segments yield `identity`.
pub fn segmented_reduce<T, F>(
    gpu: &Gpu,
    offsets: &[usize],
    vals: &[T],
    identity: T,
    op: F,
) -> Vec<T>
where
    T: Copy,
    F: Fn(T, T) -> T,
{
    assert!(!offsets.is_empty(), "offsets must have at least one entry");
    let nseg = offsets.len() - 1;
    let out: Vec<T> = offsets
        .windows(2)
        .map(|w| vals[w[0]..w[1]].iter().copied().fold(identity, &op))
        .collect();
    let n = vals.len();
    charge_streaming(
        gpu,
        "segmented_reduce",
        nseg.div_ceil(CHUNK).max(1),
        (n * std::mem::size_of::<T>() + offsets.len() * std::mem::size_of::<usize>()) as u64,
        (nseg * std::mem::size_of::<T>()) as u64,
        2 * stream_instrs(gpu, n) + stream_instrs(gpu, nseg),
    );
    out
}

/// Combine runs of equal keys — Thrust `reduce_by_key`.
///
/// `keys` must be sorted (equal keys adjacent); values in each run combine
/// with `op` in run order. Returns `(unique_keys, reduced_vals)`.
pub fn reduce_by_key<K, V, F>(gpu: &Gpu, keys: &[K], vals: &[V], op: F) -> (Vec<K>, Vec<V>)
where
    K: Copy + Eq,
    V: Copy,
    F: Fn(V, V) -> V,
{
    assert_eq!(keys.len(), vals.len(), "keys/vals length mismatch");
    let (mut out_keys, mut out_vals): (Vec<K>, Vec<V>) = (Vec::new(), Vec::new());
    for (&k, &v) in keys.iter().zip(vals) {
        match out_vals.last_mut() {
            Some(acc) if out_keys.last() == Some(&k) => *acc = op(*acc, v),
            _ => {
                out_keys.push(k);
                out_vals.push(v);
            }
        }
    }
    charge_reduce_by_key::<K, V>(gpu, keys.len(), out_keys.len());
    (out_keys, out_vals)
}

/// Charge a `reduce_by_key` of `n` sorted key–value pairs into `nseg` runs:
/// one bandwidth-shaped pass reading the pairs and writing the runs.
pub fn charge_reduce_by_key<K, V>(gpu: &Gpu, n: usize, nseg: usize) {
    let pair = std::mem::size_of::<K>() + std::mem::size_of::<V>();
    charge_streaming(
        gpu,
        "reduce_by_key",
        n.div_ceil(CHUNK).max(1),
        (n * pair) as u64,
        (nseg * pair) as u64,
        3 * stream_instrs(gpu, n),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sums() {
        let gpu = Gpu::default();
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(reduce(&gpu, &v, 0, |a, b| a + b), 5050);
    }

    #[test]
    fn reduce_empty_yields_identity() {
        let gpu = Gpu::default();
        assert_eq!(reduce(&gpu, &[] as &[u32], 7, |a, b| a + b), 7);
    }

    #[test]
    fn reduce_is_deterministic_for_floats() {
        let gpu = Gpu::default();
        let v: Vec<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
        let a = reduce(&gpu, &v, 0.0, |a, b| a + b);
        let b = reduce(&gpu, &v, 0.0, |a, b| a + b);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn segmented_reduce_handles_empty_segments() {
        let gpu = Gpu::default();
        let offsets = [0usize, 2, 2, 5];
        let vals = [1, 2, 3, 4, 5];
        let out = segmented_reduce(&gpu, &offsets, &vals, 0, |a, b| a + b);
        assert_eq!(out, vec![3, 0, 12]);
    }

    #[test]
    fn reduce_by_key_merges_runs() {
        let gpu = Gpu::default();
        let keys = [1u64, 1, 2, 5, 5, 5];
        let vals = [10, 20, 30, 1, 2, 3];
        let (k, v) = reduce_by_key(&gpu, &keys, &vals, |a, b| a + b);
        assert_eq!(k, vec![1, 2, 5]);
        assert_eq!(v, vec![30, 30, 6]);
    }

    #[test]
    fn reduce_by_key_empty() {
        let gpu = Gpu::default();
        let (k, v) = reduce_by_key(&gpu, &[] as &[u32], &[] as &[u32], |a, b| a + b);
        assert!(k.is_empty() && v.is_empty());
    }

    #[test]
    fn reduce_by_key_noncommutative_op_applies_in_run_order() {
        let gpu = Gpu::default();
        let keys = [7u32, 7, 7];
        let vals = [1i64, 2, 3];
        // "second" op keeps the last value of each run.
        let (_, v) = reduce_by_key(&gpu, &keys, &vals, |_, b| b);
        assert_eq!(v, vec![3]);
    }
}
