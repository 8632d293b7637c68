//! Shared device-side helpers: row-id expansion, key encoding, and CSR
//! (re)compression — the glue steps of every ESC-style pipeline.

use gbtl_algebra::Scalar;
use gbtl_gpu_sim::{primitives as prim, Gpu, KernelTally};
use gbtl_sparse::CsrMatrix;

/// Charge the expansion of a CSR row-pointer into one row id per stored
/// entry (the "expand" half of CUSP's offsets↔indices conversion): a
/// bandwidth-shaped kernel that reads `row_ptr` and writes `nnz` ids. The
/// host passes below walk the rows themselves, so no id array is built.
pub fn charge_expand_row_ids(gpu: &Gpu, row_ptr: &[usize], nnz: usize) {
    let nrows = row_ptr.len() - 1;
    let txn = gpu.config().mem_transaction_bytes as u64;
    let warp = gpu.config().warp_size as u64;
    gpu.charge_kernel(
        "expand_row_ids",
        nrows.div_ceil(4096).max(1),
        KernelTally {
            warp_instructions: (nnz as u64).div_ceil(warp) + (nrows as u64).div_ceil(warp),
            mem_transactions: ((row_ptr.len() * 8) as u64).div_ceil(txn)
                + ((nnz * 8) as u64).div_ceil(txn),
            atomic_ops: 0,
        },
    );
}

/// One key per stored entry of `m`, in storage order: `key(row, col)`.
/// Charges the row-id expansion the device needs first; the keying kernel
/// itself is the caller's to charge.
pub fn entry_keys<T: Scalar>(
    gpu: &Gpu,
    m: &CsrMatrix<T>,
    key: impl Fn(usize, usize) -> u64,
) -> Vec<u64> {
    charge_expand_row_ids(gpu, m.row_ptr(), m.nnz());
    let mut keys = Vec::with_capacity(m.nnz());
    for i in 0..m.nrows() {
        keys.extend(m.row(i).0.iter().map(|&j| key(i, j)));
    }
    keys
}

/// Encode `(row, col)` as a sortable 64-bit key, row-major.
#[inline]
pub fn encode_key(row: usize, col: usize, ncols: usize) -> u64 {
    debug_assert!(col < ncols);
    row as u64 * ncols as u64 + col as u64
}

/// Inverse of [`encode_key`].
#[inline]
pub fn decode_key(key: u64, ncols: usize) -> (usize, usize) {
    ((key / ncols as u64) as usize, (key % ncols as u64) as usize)
}

/// Assemble a CSR matrix from row-major-sorted, duplicate-free
/// `(key, value)` pairs. Charged as the device does it — two `transform`s
/// splitting the keys, a histogram of the rows, a scan into the row
/// pointer — and computed in one pass over the keys.
pub fn compress_sorted_keys<T: Scalar>(
    gpu: &Gpu,
    nrows: usize,
    ncols: usize,
    keys: &[u64],
    vals: Vec<T>,
) -> CsrMatrix<T> {
    debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys sorted unique");
    // Sorted keys visit the rows in order, so the row of each key is found
    // by stepping forward, with no division per entry.
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    let mut cols = Vec::with_capacity(keys.len());
    let mut row_end = 0u64; // first key past the rows closed so far
    for (e, &k) in keys.iter().enumerate() {
        while k >= row_end {
            row_ptr.push(e);
            row_end += ncols as u64;
        }
        cols.push((k - (row_end - ncols as u64)) as usize);
    }
    row_ptr.resize(nrows + 1, keys.len());
    prim::map::charge_transform::<u64, usize>(gpu, keys.len());
    prim::map::charge_transform::<u64, usize>(gpu, keys.len());
    prim::histogram::charge_histogram(gpu, nrows, keys.len());
    prim::scan::charge_scan::<usize>(gpu, nrows);
    CsrMatrix::from_parts_unchecked(nrows, ncols, row_ptr, cols, vals)
}

/// Guard: the 64-bit key encoding must not overflow.
pub fn assert_key_encodable(nrows: usize, ncols: usize) {
    let max = nrows as u128 * ncols as u128;
    assert!(
        max < (u64::MAX / 4) as u128,
        "matrix {nrows}x{ncols} too large for 64-bit ESC keys"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_gpu_sim::GpuConfig;

    #[test]
    fn entry_keys_walk_rows_in_storage_order() {
        let gpu = Gpu::new(GpuConfig::k40());
        // rows with 2, 0, 3 entries
        let m = CsrMatrix::from_parts_unchecked(
            3,
            4,
            vec![0, 2, 2, 5],
            vec![1, 3, 0, 1, 2],
            vec![1i64; 5],
        );
        let keys = entry_keys(&gpu, &m, |i, j| encode_key(i, j, 4));
        assert_eq!(keys, vec![1, 3, 8, 9, 10]);
        assert_eq!(gpu.stats().kernels_launched, 1);
    }

    #[test]
    fn key_round_trip() {
        let k = encode_key(7, 11, 100);
        assert_eq!(decode_key(k, 100), (7, 11));
    }

    #[test]
    fn compress_rebuilds_csr() {
        let gpu = Gpu::default();
        // entries (0,1)=10, (0,3)=20, (2,0)=30 in a 3x4
        let keys = [1u64, 3, 8];
        let m = compress_sorted_keys(&gpu, 3, 4, &keys, vec![10, 20, 30]);
        m.validate().unwrap();
        assert_eq!(m.get(0, 1), Some(10));
        assert_eq!(m.get(0, 3), Some(20));
        assert_eq!(m.get(2, 0), Some(30));
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn key_overflow_guard() {
        assert_key_encodable(1 << 40, 1 << 40);
    }
}
