//! The charges of the host fallbacks.
//!
//! Early GPU GraphBLAS backends (GBTL-CUDA included) did not port every
//! operation; rarely-hot ones ran on the host, paying the device↔host
//! round-trip. `extract` and `assign` follow that pattern here: the
//! sequential algorithms do the work, and the device is charged the D2H
//! of the operand and the H2D of the result — the real penalty of leaving
//! the device.

use gbtl_algebra::Scalar;
use gbtl_gpu_sim::Gpu;
use gbtl_sparse::{CsrMatrix, DenseVector};

/// The bytes of a CSR matrix's three arrays.
pub fn csr_bytes<T: Scalar>(m: &CsrMatrix<T>) -> u64 {
    ((m.nrows() + 1 + m.nnz()) * 8 + m.nnz() * std::mem::size_of::<T>()) as u64
}

/// The bytes of a dense vector's `Option<T>` slots.
fn dense_bytes<T: Scalar>(v: &DenseVector<T>) -> u64 {
    (v.len() * std::mem::size_of::<Option<T>>()) as u64
}

/// A matrix op on the host (`extract_mat`, `assign_mat`): `down` leaves
/// the device, `up` returns.
pub fn matrix_roundtrip<T: Scalar>(gpu: &Gpu, down: &CsrMatrix<T>, up: &CsrMatrix<T>) {
    gpu.charge_transfer_bytes(csr_bytes(down), false);
    gpu.charge_transfer_bytes(csr_bytes(up), true);
}

/// A vector op on the host (`extract_vec`, `assign_vec`): `down` leaves
/// the device, `up` returns.
pub fn vector_roundtrip<T: Scalar>(gpu: &Gpu, down: &DenseVector<T>, up: &DenseVector<T>) {
    gpu.charge_transfer_bytes(dense_bytes(down), false);
    gpu.charge_transfer_bytes(dense_bytes(up), true);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_roundtrip_is_one_transfer_each_way() {
        let gpu = Gpu::default();
        let (a, b) = (CsrMatrix::<i64>::new(3, 3), CsrMatrix::<i64>::new(1, 2));
        matrix_roundtrip(&gpu, &a, &b);
        let s = gpu.stats();
        assert_eq!((s.d2h_transfers, s.h2d_transfers), (1, 1));
        assert_eq!((s.bytes_d2h, s.bytes_h2d), (32, 16));
        vector_roundtrip(&gpu, &DenseVector::<i64>::new(4), &DenseVector::new(1));
        assert_eq!(gpu.stats().bytes_d2h, 32 + 64);
    }
}
