//! The charges of sparse matrix–matrix multiply: the pipeline GBTL-CUDA
//! runs for the product the sequential backend computes.
//!
//! * [`mxm`] — CUSP's **ESC** (expand, sort, compress) SpGEMM: expand every
//!   `A(i,k)·B(k,:)` product into a candidate triple, radix-sort the
//!   candidates by `(i,j)`, and compress duplicates with `reduce_by_key`.
//!   This is exactly the algorithm the GBTL-CUDA backend inherits from
//!   CUSP. The stable sort keeps each `(i,j)`'s candidates in ascending
//!   `k`, the order the sequential row accumulator folds them in.
//! * [`mxm_masked`] — the dot-product formulation for structurally-masked
//!   products (`C<M> = A·B`): `B` is transposed on the device for column
//!   access, then [`mxm_dot`] merge-joins `A(i,:)` with `B(:,j)` in one
//!   warp per mask entry. This is the triangle-counting shape, where ESC's
//!   expansion would materialise every wedge.

use gbtl_algebra::Scalar;
use gbtl_gpu_sim::{primitives as prim, Gpu, KernelTally};
use gbtl_sparse::CsrMatrix;

use crate::ops::transpose;
use crate::util::{charge_compress, charge_expand_row_ids};

/// `c = A ⊕.⊗ B` by expand–sort–compress.
pub fn mxm<T, D1, D2>(gpu: &Gpu, a: &CsrMatrix<D1>, b: &CsrMatrix<D2>, c: &CsrMatrix<T>)
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
{
    let b_row_ptr = b.row_ptr();

    // --- Expand ---------------------------------------------------------
    // The device stages one row id per A entry, the bounds of the B row it
    // references (two gathers at A's column pattern — the second through
    // the shifted pointer), their difference and its scan into output
    // offsets; then the expansion kernel writes one candidate key and
    // product per term.
    charge_expand_row_ids(gpu, a.nrows(), a.nnz());
    prim::gather::charge_gather::<usize>(gpu, a.col_idx());
    prim::gather::charge_gather::<usize>(gpu, a.col_idx());
    prim::map::charge_zip_transform::<usize, usize, usize>(gpu, a.nnz());
    prim::scan::charge_scan::<usize>(gpu, a.nnz());
    let total: usize = a.col_idx().iter().map(|&k| b.row_nnz(k)).sum();
    let txn = gpu.config().mem_transaction_bytes as u64;
    let b_sz = std::mem::size_of::<D2>() as u64;
    let val_sz = std::mem::size_of::<T>() as u64;
    let row_starts = a.col_idx().iter().map(|&k| b_row_ptr[k]);
    gpu.charge_kernel(
        "spgemm_expand",
        a.nnz().div_ceil(256).max(1),
        KernelTally {
            warp_instructions: 6 * (total as u64).div_ceil(gpu.config().warp_size as u64),
            mem_transactions: prim::gather_cost(gpu, row_starts, 8)
                + (total as u64 * (8 + b_sz)).div_ceil(txn)   // B-row payload reads
                + (total as u64 * (8 + val_sz)).div_ceil(txn), // candidate writes
            atomic_ops: 0,
        },
    );

    // --- Sort, compress ---------------------------------------------------
    prim::sort::charge_radix_sort::<u64, T>(gpu, total);
    prim::reduce::charge_reduce_by_key::<u64, T>(gpu, total, c.nnz());
    charge_compress(gpu, c.nrows(), c.nnz());
}

/// `C<M> = A ⊕.⊗ B` computed per mask entry by merging `A(i,:)` against
/// `B(:,j)`: `B` is transposed on the device, then [`mxm_dot`] runs over
/// the transpose's rows. Its result's entries are the mask's, so only its
/// value type is charged.
pub fn mxm_masked<T, D1, D2>(
    gpu: &Gpu,
    mask: &CsrMatrix<bool>,
    a: &CsrMatrix<D1>,
    b: &CsrMatrix<D2>,
    _c: &CsrMatrix<T>,
) where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
{
    transpose(gpu, b);
    // the transpose's row lengths are B's column lengths: one pass over
    // its column indices
    let mut b_col_nnz = vec![0usize; b.ncols()];
    for &j in b.col_idx() {
        b_col_nnz[j] += 1;
    }
    mxm_dot::<T, D1, D2>(gpu, mask, a, |j| b_col_nnz[j]);
}

/// The dot kernel of `C<M> = A ⊕.⊗ B` over a matrix the device already
/// holds whose row `j` is `B(:,j)`, `bt_row_nnz(j)` entries long: one warp
/// per mask entry `(i, j)` streams `A(i,:)` and that row once each
/// (contiguous runs), after the mask's row ids are expanded. With
/// `B = Lᵀ` that matrix is `L` itself, so `C<L> = L·Lᵀ` charges no
/// transpose.
pub fn mxm_dot<T, D1, D2>(
    gpu: &Gpu,
    mask: &CsrMatrix<bool>,
    a: &CsrMatrix<D1>,
    bt_row_nnz: impl Fn(usize) -> usize,
) where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
{
    charge_expand_row_ids(gpu, mask.nrows(), mask.nnz());
    let a_elems: u64 = (mask.row_ptr().windows(2).enumerate())
        .map(|(i, m)| ((m[1] - m[0]) * a.row_nnz(i)) as u64)
        .sum();
    let b_elems: u64 = mask.col_idx().iter().map(|&j| bt_row_nnz(j) as u64).sum();
    let txn = gpu.config().mem_transaction_bytes as u64;
    let (a_sz, b_sz) = (
        std::mem::size_of::<D1>() as u64,
        std::mem::size_of::<D2>() as u64,
    );
    let val_sz = std::mem::size_of::<T>() as u64;
    let merged_elems = a_elems + b_elems;
    gpu.charge_kernel(
        "spgemm_masked_dot",
        mask.nnz().div_ceil(256).max(1),
        KernelTally {
            warp_instructions: 2 * merged_elems.div_ceil(gpu.config().warp_size as u64)
                + mask.nnz() as u64,
            mem_transactions: (a_elems * (8 + a_sz) + b_elems * (8 + b_sz)).div_ceil(txn)
                + merged_elems / 8 // per-row/col start overhead, amortised
                + ((mask.nnz() * (8 + val_sz as usize)) as u64).div_ceil(txn),
            atomic_ops: 0,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_sparse::CooMatrix;

    #[test]
    fn esc_charges_expand_sort_compress_kernels() {
        let gpu = Gpu::default();
        let mut coo = CooMatrix::new(2, 2);
        for (i, j) in [(0, 0), (0, 1), (1, 0)] {
            coo.push(i, j, 1i64);
        }
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let c = gbtl_backend_seq::mxm(&a, &a, gbtl_algebra::PlusTimes::<i64>::new());
        mxm(&gpu, &a, &a, &c);
        let s = gpu.stats();
        // expand + 4 radix passes + reduce_by_key + compress pieces, at least
        assert!(s.kernels_launched >= 7, "launched {}", s.kernels_launched);
        assert!(s.mem_transactions > 0);
    }

    #[test]
    fn the_masked_product_is_a_transpose_then_the_dot_over_its_rows() {
        let mut coo = CooMatrix::new(40, 40);
        for k in 0..300usize {
            coo.push((k * 7) % 40, (k * 13 + k / 40) % 40, true);
        }
        let b = CsrMatrix::from_coo(coo, |x, _| x);
        let bt = b.transpose();
        let (whole, split) = (Gpu::default().scratch(), Gpu::default().scratch());
        mxm_masked::<u64, bool, bool>(&whole, &b, &b, &b, &CsrMatrix::new(40, 40));
        transpose(&split, &b);
        mxm_dot::<u64, bool, bool>(&split, &b, &b, |j| bt.row_nnz(j));
        // the stats carry the launch log
        assert_eq!(whole.stats(), split.stats());
    }

    #[test]
    fn an_empty_mask_is_charged_only_the_transpose() {
        let (gpu, bare) = (Gpu::default(), Gpu::default());
        let a = CsrMatrix::<i64>::new(2, 2);
        mxm_masked(&gpu, &CsrMatrix::new(2, 2), &a, &a, &a);
        transpose(&bare, &a);
        // the transpose, the mask's row ids and one dot launch
        assert_eq!(
            gpu.stats().kernels_launched,
            bare.stats().kernels_launched + 2
        );
    }
}
