//! Reductions: full, segmented, and by-key.

use super::{charge_streaming, stream_instrs, CHUNK};
use crate::Gpu;

/// Charge a full reduction of `n` elements of `T` — Thrust `reduce`: reads
/// them once, the `log`-depth combine charged as one extra instruction per
/// warp, one value written.
pub fn charge_reduce<T>(gpu: &Gpu, n: usize) {
    charge_streaming(
        gpu,
        "reduce",
        n.div_ceil(CHUNK).max(1),
        (n * std::mem::size_of::<T>()) as u64,
        std::mem::size_of::<T>() as u64,
        2 * stream_instrs(gpu, n),
    );
}

/// Charge CUSP's segmented reduction (a CSR row reduce) of `n` values of
/// `T` in `nseg` segments: values and the `nseg + 1` offsets read, one
/// value per segment written.
pub fn charge_segmented_reduce<T>(gpu: &Gpu, nseg: usize, n: usize) {
    charge_streaming(
        gpu,
        "segmented_reduce",
        nseg.div_ceil(CHUNK).max(1),
        (n * std::mem::size_of::<T>() + (nseg + 1) * std::mem::size_of::<usize>()) as u64,
        (nseg * std::mem::size_of::<T>()) as u64,
        2 * stream_instrs(gpu, n) + stream_instrs(gpu, nseg),
    );
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
    fn reductions_charge_one_kernel_each() {
        let gpu = Gpu::default();
        charge_reduce::<f64>(&gpu, 100);
        charge_segmented_reduce::<u32>(&gpu, 3, 5);
        let s = gpu.stats();
        assert_eq!(s.kernels_launched, 2);
        // 800 B + 8 B; 20 B + 32 B of offsets, 12 B out
        assert_eq!(s.mem_transactions, 7 + 1 + 1 + 1);
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
