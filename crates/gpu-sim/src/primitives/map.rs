//! Elementwise primitives: `transform`, `zip_transform`, `sequence`, `fill`.

use super::{charge_streaming, stream_instrs, CHUNK};
use crate::Gpu;

/// `out[i] = f(input[i])` — Thrust `transform` ([`charge_transform`]).
pub fn transform<A, B, F>(gpu: &Gpu, input: &[A], f: F) -> Vec<B>
where
    F: Fn(&A) -> B,
{
    let out: Vec<B> = input.iter().map(f).collect();
    charge_transform::<A, B>(gpu, input.len());
    out
}

/// Charge a `transform` of `n` elements: one kernel streaming `n·size(A)`
/// in and `n·size(B)` out, plus one ALU instruction per warp-step.
pub fn charge_transform<A, B>(gpu: &Gpu, n: usize) {
    charge_streaming(
        gpu,
        "transform",
        n.div_ceil(CHUNK).max(1),
        (n * std::mem::size_of::<A>()) as u64,
        (n * std::mem::size_of::<B>()) as u64,
        2 * stream_instrs(gpu, n),
    );
}

/// In-place `transform`: `data[i] = f(data[i])`.
pub fn transform_inplace<T, F>(gpu: &Gpu, data: &mut [T], f: F)
where
    T: Copy,
    F: Fn(T) -> T,
{
    data.iter_mut().for_each(|v| *v = f(*v));
    let n = data.len();
    let bytes = (n * std::mem::size_of::<T>()) as u64;
    charge_streaming(
        gpu,
        "transform_inplace",
        n.div_ceil(CHUNK).max(1),
        bytes,
        bytes,
        2 * stream_instrs(gpu, n),
    );
}

/// `out[i] = f(a[i], b[i])` — binary Thrust `transform`
/// ([`charge_zip_transform`]).
pub fn zip_transform<A, B, C, F>(gpu: &Gpu, a: &[A], b: &[B], f: F) -> Vec<C>
where
    F: Fn(&A, &B) -> C,
{
    assert_eq!(a.len(), b.len(), "zip_transform requires equal lengths");
    let out: Vec<C> = a.iter().zip(b).map(|(x, y)| f(x, y)).collect();
    charge_zip_transform::<A, B, C>(gpu, a.len());
    out
}

/// Charge a binary `transform` of `n` element pairs.
pub fn charge_zip_transform<A, B, C>(gpu: &Gpu, n: usize) {
    charge_streaming(
        gpu,
        "zip_transform",
        n.div_ceil(CHUNK).max(1),
        (n * (std::mem::size_of::<A>() + std::mem::size_of::<B>())) as u64,
        (n * std::mem::size_of::<C>()) as u64,
        3 * stream_instrs(gpu, n),
    );
}

/// `out[i] = start + i` — Thrust `sequence`/counting iterator materialised.
pub fn sequence(gpu: &Gpu, start: usize, n: usize) -> Vec<usize> {
    let out: Vec<usize> = (start..start + n).collect();
    charge_streaming(
        gpu,
        "sequence",
        n.div_ceil(CHUNK).max(1),
        0,
        (n * std::mem::size_of::<usize>()) as u64,
        stream_instrs(gpu, n),
    );
    out
}

/// `out[i] = value` — Thrust `fill`.
pub fn fill<T: Copy>(gpu: &Gpu, value: T, n: usize) -> Vec<T> {
    let out = vec![value; n];
    charge_streaming(
        gpu,
        "fill",
        n.div_ceil(CHUNK).max(1),
        0,
        (n * std::mem::size_of::<T>()) as u64,
        stream_instrs(gpu, n),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_applies_elementwise() {
        let gpu = Gpu::default();
        let out = transform(&gpu, &[1, 2, 3], |&x: &i32| x * x);
        assert_eq!(out, vec![1, 4, 9]);
        assert_eq!(gpu.stats().kernels_launched, 1);
    }

    #[test]
    fn transform_inplace_mutates() {
        let gpu = Gpu::default();
        let mut v = vec![1.0f64, 2.0];
        transform_inplace(&gpu, &mut v, |x| x + 0.5);
        assert_eq!(v, vec![1.5, 2.5]);
    }

    #[test]
    fn zip_transform_pairs() {
        let gpu = Gpu::default();
        let out = zip_transform(&gpu, &[1u32, 2], &[10u32, 20], |a, b| a + b);
        assert_eq!(out, vec![11, 22]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn zip_transform_length_mismatch_panics() {
        let gpu = Gpu::default();
        let _ = zip_transform(&gpu, &[1u32], &[1u32, 2], |a, b| a + b);
    }

    #[test]
    fn sequence_and_fill() {
        let gpu = Gpu::default();
        assert_eq!(sequence(&gpu, 5, 3), vec![5, 6, 7]);
        assert_eq!(fill(&gpu, 9u8, 4), vec![9, 9, 9, 9]);
    }
}
