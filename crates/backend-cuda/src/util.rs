//! Charges shared by the device pipelines: a streaming kernel, the row-id
//! expansion before a CSR's entries can be keyed, and the compression of
//! sorted keys back into a CSR.

use gbtl_gpu_sim::{primitives as prim, Gpu, KernelTally};

/// Charge one bandwidth-shaped kernel that streams `n` elements, reading
/// `read_bytes_per_elem` and writing `write_bytes_per_elem` per element.
pub fn charge_stream_kernel(
    gpu: &Gpu,
    name: &'static str,
    n: usize,
    read_bytes_per_elem: usize,
    write_bytes_per_elem: usize,
) {
    let txn = gpu.config().mem_transaction_bytes as u64;
    gpu.charge_kernel(
        name,
        n.div_ceil(256).max(1),
        KernelTally {
            warp_instructions: 2 * (n as u64).div_ceil(gpu.config().warp_size as u64),
            mem_transactions: ((n * read_bytes_per_elem) as u64).div_ceil(txn)
                + ((n * write_bytes_per_elem) as u64).div_ceil(txn),
            atomic_ops: 0,
        },
    );
}

/// Charge the expansion of an `nrows`-row CSR row pointer into one row id
/// per stored entry (the "expand" half of CUSP's offsets↔indices
/// conversion): a bandwidth-shaped kernel that reads the `nrows + 1`
/// pointers and writes `nnz` ids.
pub fn charge_expand_row_ids(gpu: &Gpu, nrows: usize, nnz: usize) {
    let txn = gpu.config().mem_transaction_bytes as u64;
    let warp = gpu.config().warp_size as u64;
    gpu.charge_kernel(
        "expand_row_ids",
        nrows.div_ceil(4096).max(1),
        KernelTally {
            warp_instructions: (nnz as u64).div_ceil(warp) + (nrows as u64).div_ceil(warp),
            mem_transactions: (((nrows + 1) * 8) as u64).div_ceil(txn)
                + ((nnz * 8) as u64).div_ceil(txn),
            atomic_ops: 0,
        },
    );
}

/// Charge the assembly of an `nrows`-row CSR from `nnz` row-major-sorted,
/// duplicate-free `(key, value)` pairs: two `transform`s splitting the
/// keys into rows and columns, a histogram of the rows, a scan into the
/// row pointer.
pub fn charge_compress(gpu: &Gpu, nrows: usize, nnz: usize) {
    prim::map::charge_transform::<u64, usize>(gpu, nnz);
    prim::map::charge_transform::<u64, usize>(gpu, nnz);
    prim::histogram::charge_histogram(gpu, nrows, nnz);
    prim::scan::charge_scan::<usize>(gpu, nrows);
}
