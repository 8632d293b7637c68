//! Sorting — the backbone of ESC SpGEMM, transpose and COO→CSR build.

use super::{charge_streaming, stream_instrs, CHUNK};
use crate::Gpu;

/// Radix-sort pass count modeled for the charged cost (CUB-style 16-bit
/// digits over 64-bit keys).
const RADIX_PASSES: u64 = 4;

/// Bits per digit of the host-side sort (256 buckets: the counters stay in
/// L1 for the frontier-sized inputs that dominate).
const DIGIT_BITS: u32 = 8;

/// A key the radix sort can order: `radix_image` is an unsigned image whose
/// numeric order is the key's `Ord` order.
pub trait RadixKey: Copy + Ord {
    /// The order-preserving unsigned image of this key.
    fn radix_image(self) -> u64;
}

macro_rules! radix_key {
    ($($key:ty => $image:expr),*) => {
        $(impl RadixKey for $key {
            #[inline(always)]
            fn radix_image(self) -> u64 {
                $image(self)
            }
        })*
    };
}
// a signed key widens to 64 bits, then flipping the sign bit puts negatives
// below non-negatives
radix_key!(
    u8 => |k| k as u64, u16 => |k| k as u64, u32 => |k| k as u64,
    u64 => |k| k, usize => |k| k as u64,
    i32 => |k| (k as i64 as u64) ^ (1 << 63), i64 => |k| (k as u64) ^ (1 << 63)
);

/// Charge an LSD radix sort of `n` key–value pairs: `RADIX_PASSES`
/// bandwidth-shaped passes over keys+values.
pub fn charge_radix_sort<K, V>(gpu: &Gpu, n: usize) {
    let elem = std::mem::size_of::<K>() + std::mem::size_of::<V>();
    let bytes = (n * elem) as u64;
    for _ in 0..RADIX_PASSES {
        charge_streaming(
            gpu,
            "radix_sort_pass",
            n.div_ceil(CHUNK).max(1),
            bytes,
            bytes,
            4 * stream_instrs(gpu, n),
        );
    }
}

/// Stable sort of `keys` (carrying `vals`), in as few sweeps over the data
/// as the input allows. One scan counts the ascending runs and ORs the
/// keys' unsigned images: sorted input returns at once; input that is a
/// few sorted runs (two sorted operands concatenated) is
/// merged, `log2(runs)` sweeps; anything else takes LSD radix passes over
/// the digits that are in use — digits above the largest key are never
/// visited, and a digit every key agrees on is skipped.
fn stable_sort<K: RadixKey, V: Copy>(keys: &[K], vals: &[V]) -> (Vec<K>, Vec<V>) {
    let n = keys.len();
    let (mut all_bits, mut prev, mut runs) = (0u64, 0u64, 1usize);
    for k in keys {
        let image = k.radix_image();
        runs += usize::from(image < prev);
        all_bits |= image;
        prev = image;
    }
    if runs == 1 {
        return (keys.to_vec(), vals.to_vec());
    }
    let used_bits = u64::BITS - all_bits.leading_zeros();
    if runs.next_power_of_two().trailing_zeros() <= used_bits.div_ceil(DIGIT_BITS) {
        // std's stable sort finds the runs and merges them
        let mut pairs: Vec<(K, V)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        pairs.sort_by_key(|&(k, _)| k);
        return pairs.into_iter().unzip();
    }
    let (mut keys, mut vals) = (keys.to_vec(), vals.to_vec());
    let (mut keys_out, mut vals_out) = (keys.clone(), vals.clone());
    for shift in (0..used_bits).step_by(DIGIT_BITS as usize) {
        let digit = |k: &K| (k.radix_image() >> shift) as usize & ((1 << DIGIT_BITS) - 1);
        let mut next = [0usize; 1 << DIGIT_BITS];
        for k in keys.iter() {
            next[digit(k)] += 1;
        }
        if next.contains(&n) {
            continue;
        }
        // counts -> first output slot of each bucket
        let mut start = 0;
        for slot in next.iter_mut() {
            start += std::mem::replace(slot, start);
        }
        for (k, v) in keys.iter().zip(vals.iter()) {
            let slot = &mut next[digit(k)];
            keys_out[*slot] = *k;
            vals_out[*slot] = *v;
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut keys_out);
        std::mem::swap(&mut vals, &mut vals_out);
    }
    (keys, vals)
}

/// Sort `(keys, vals)` pairs by key — Thrust `stable_sort_by_key`.
///
/// **Stable**: pairs with equal keys keep their input order, so a
/// [`reduce_by_key`](super::reduce_by_key) after it folds each run in input
/// order — the order in which the push and ESC pipelines the CUDA backend
/// charges fold, and the sequential kernels that compute them.
///
/// Charged as an LSD radix sort ([`charge_radix_sort`]) whatever the input;
/// executed as one unless the input is already a few sorted runs, which
/// are merged instead.
pub fn sort_pairs<K, V>(gpu: &Gpu, keys: &[K], vals: &[V]) -> (Vec<K>, Vec<V>)
where
    K: RadixKey,
    V: Copy,
{
    assert_eq!(keys.len(), vals.len(), "keys/vals length mismatch");
    charge_radix_sort::<K, V>(gpu, keys.len());
    stable_sort(keys, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_pairs_orders_by_key() {
        let gpu = Gpu::default();
        let keys = [3u64, 1, 2];
        let vals = [30u32, 10, 20];
        let (k, v) = sort_pairs(&gpu, &keys, &vals);
        assert_eq!(k, vec![1, 2, 3]);
        assert_eq!(v, vec![10, 20, 30]);
    }

    #[test]
    fn sort_pairs_is_stable() {
        // Equal keys keep their input order: in the few-runs merge...
        let gpu = Gpu::default();
        let keys = [5u64, 300, 5, 1, 300, 5];
        let vals = [1u8, 2, 3, 4, 5, 6];
        let (k, v) = sort_pairs(&gpu, &keys, &vals);
        assert_eq!(k, vec![1, 5, 5, 5, 300, 300]);
        assert_eq!(v, vec![4, 1, 3, 6, 2, 5]);
        // ...and across two radix digits (descending keys: 64 runs)
        let keys: Vec<u64> = (0..64u64).rev().flat_map(|k| [k * 8, k * 8]).collect();
        let vals: Vec<usize> = (0..keys.len()).collect();
        let (k, v) = sort_pairs(&gpu, &keys, &vals);
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
        for pair in v.chunks(2) {
            assert_eq!(pair[0] + 1, pair[1], "tie order kept");
        }
    }

    #[test]
    fn signed_keys_sort_below_unsigned_images() {
        let gpu = Gpu::default();
        let (k, v) = sort_pairs(&gpu, &[9i32, -1, 4], &[0u8, 1, 2]);
        assert_eq!((k, v), (vec![-1, 4, 9], vec![1, 2, 0]));
    }

    #[test]
    fn sort_charges_radix_passes() {
        let gpu = Gpu::default();
        let _ = sort_pairs(&gpu, &[1u64; 100], &[(); 100]);
        assert_eq!(gpu.stats().kernels_launched, RADIX_PASSES);
    }

    #[test]
    fn sort_large_random() {
        let gpu = Gpu::default();
        // xorshift-ish deterministic pseudo-random input
        let mut x = 0x9E3779B97F4A7C15u64;
        let keys: Vec<u64> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let (sorted, _) = sort_pairs(&gpu, &keys, &vec![(); keys.len()]);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sorted.len(), keys.len());
    }
}
