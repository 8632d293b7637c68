//! Elementwise kernels: Thrust `transform`, unary and binary.

use super::{charge_streaming, stream_instrs, CHUNK};
use crate::Gpu;

/// Charge a `transform` of `n` elements (`out[i] = f(input[i])`): one
/// kernel streaming `n·size(A)` in and `n·size(B)` out, plus one ALU
/// instruction per warp-step.
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

/// Charge a binary `transform` of `n` element pairs (`out[i] = f(a[i],
/// b[i])`).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transforms_stream_their_operands() {
        let gpu = Gpu::default();
        charge_transform::<u64, u32>(&gpu, 64);
        charge_zip_transform::<u64, u64, u8>(&gpu, 64);
        let s = gpu.stats();
        assert_eq!(s.kernels_launched, 2);
        // 512 B + 256 B, then 1 024 B + 64 B, in 128-byte transactions
        assert_eq!(s.mem_transactions, 4 + 2 + 8 + 1);
        assert_eq!(s.warp_instructions, 2 * 2 + 3 * 2);
    }
}
