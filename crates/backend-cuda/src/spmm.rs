//! Sparse matrix–matrix multiply on the device.
//!
//! * [`mxm`] — CUSP's **ESC** (expand, sort, compress) SpGEMM: expand every
//!   `A(i,k)·B(k,:)` product into a candidate triple, radix-sort the
//!   candidates by `(i,j)`, and compress duplicates with `reduce_by_key`.
//!   This is exactly the algorithm the GBTL-CUDA backend inherits from
//!   CUSP.
//! * [`mxm_masked`] — the dot-product formulation for structurally-masked
//!   products (`C<M> = A·B`): one merge-join of `A(i,:)` with `B(:,j)` per
//!   mask entry. This is the triangle-counting shape, where ESC's
//!   expansion would materialise every wedge.

use gbtl_algebra::{BinaryOp, Scalar, Semiring};
use gbtl_gpu_sim::{primitives as prim, Gpu, KernelTally};
use gbtl_sparse::{CscMatrix, CsrMatrix};

use crate::util::{assert_key_encodable, charge_expand_row_ids, compress_sorted_keys, encode_key};

/// `C = A ⊕.⊗ B` by expand–sort–compress.
pub fn mxm<T, D1, D2, S>(gpu: &Gpu, a: &CsrMatrix<D1>, b: &CsrMatrix<D2>, sr: S) -> CsrMatrix<T>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    assert_eq!(a.ncols(), b.nrows(), "mxm inner dimension mismatch");
    assert_key_encodable(a.nrows(), b.ncols());
    let (add, mul) = (sr.add(), sr.mul());
    let (m, n) = (a.nrows(), b.ncols());
    let b_row_ptr = b.row_ptr();

    // --- Expand ---------------------------------------------------------
    // The device stages one row id per A entry, the bounds of the B row it
    // references (two gathers at A's column pattern — the second through
    // the shifted pointer), their difference and its scan into output
    // offsets. The host pass below reads all of that off the CSR arrays as
    // it goes, so the staging is charged and not built.
    charge_expand_row_ids(gpu, a.row_ptr(), a.nnz());
    prim::gather::charge_gather::<usize>(gpu, a.col_idx());
    prim::gather::charge_gather::<usize>(gpu, a.col_idx());
    prim::map::charge_zip_transform::<usize, usize, usize>(gpu, a.nnz());
    prim::scan::charge_scan::<usize>(gpu, a.nnz());

    // Candidate keys and values in expansion order, straight into the two
    // buffers the sort takes.
    let total: usize = a.col_idx().iter().map(|&k| b.row_nnz(k)).sum();
    let mut keys: Vec<u64> = Vec::with_capacity(total);
    let mut cvals: Vec<T> = Vec::with_capacity(total);
    for i in 0..m {
        let (a_cols, a_vals) = a.row(i);
        for (&k, &aik) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k);
            keys.extend(b_cols.iter().map(|&j| encode_key(i, j, n)));
            cvals.extend(b_vals.iter().map(|&bkj| mul.apply(aik, bkj)));
        }
    }
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
    let (sorted_keys, sorted_vals) = prim::sort_pairs(gpu, &keys, &cvals);
    let (out_keys, out_vals) =
        prim::reduce_by_key(gpu, &sorted_keys, &sorted_vals, |x, y| add.apply(x, y));
    compress_sorted_keys(gpu, m, n, &out_keys, out_vals)
}

/// `C<M> = A ⊕.⊗ B` computed per mask entry by merging `A(i,:)` against
/// `B(:,j)` (the latter supplied as CSC so column access is contiguous).
pub fn mxm_masked<T, D1, D2, S>(
    gpu: &Gpu,
    mask: &CsrMatrix<bool>,
    a: &CsrMatrix<D1>,
    b_csc: &CscMatrix<D2>,
    sr: S,
) -> CsrMatrix<T>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    assert_eq!(a.ncols(), b_csc.nrows(), "mxm inner dimension mismatch");
    assert_eq!(
        (mask.nrows(), mask.ncols()),
        (a.nrows(), b_csc.ncols()),
        "mask shape must equal output shape"
    );
    let (add, mul) = (sr.add(), sr.mul());
    charge_expand_row_ids(gpu, mask.row_ptr(), mask.nnz());

    // One warp per mask entry: merge-join of two sorted index lists. An
    // entry that produced a value goes straight into the output CSR.
    let mut row_ptr = Vec::with_capacity(mask.nrows() + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    let (mut a_elems, mut b_elems) = (0u64, 0u64);
    for i in 0..mask.nrows() {
        let (ac, av) = a.row(i);
        for &j in mask.row(i).0 {
            let (bc, bv) = b_csc.col(j);
            a_elems += ac.len() as u64;
            b_elems += bc.len() as u64;
            let (mut p, mut q) = (0usize, 0usize);
            let mut acc: Option<T> = None;
            while p < ac.len() && q < bc.len() {
                match ac[p].cmp(&bc[q]) {
                    std::cmp::Ordering::Equal => {
                        let term = mul.apply(av[p], bv[q]);
                        acc = Some(match acc {
                            Some(v) => add.apply(v, term),
                            None => term,
                        });
                        p += 1;
                        q += 1;
                    }
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                }
            }
            if let Some(v) = acc {
                col_idx.push(j);
                vals.push(v);
            }
        }
        row_ptr.push(col_idx.len());
    }

    // Cost: each entry streams both lists once (contiguous runs).
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
    CsrMatrix::from_parts_unchecked(mask.nrows(), mask.ncols(), row_ptr, col_idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{MinPlus, PlusTimes};
    use gbtl_sparse::CooMatrix;

    fn mat(entries: &[(usize, usize, i64)], m: usize, n: usize) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(m, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn esc_matches_gustavson() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 0, 1), (0, 1, 2), (1, 2, 3)], 2, 3);
        let b = mat(&[(0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 1, 2)], 3, 2);
        let expected = gbtl_backend_seq::mxm(&a, &b, PlusTimes::<i64>::new());
        let got = mxm(&gpu, &a, &b, PlusTimes::<i64>::new());
        assert_eq!(got, expected);
        got.validate().unwrap();
    }

    #[test]
    fn esc_with_min_plus() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 1, 5), (1, 2, 7), (0, 2, 100)], 3, 3);
        let expected = gbtl_backend_seq::mxm(&a, &a, MinPlus::<i64>::new());
        let got = mxm(&gpu, &a, &a, MinPlus::<i64>::new());
        assert_eq!(got, expected);
    }

    #[test]
    fn esc_empty_operands() {
        let gpu = Gpu::default();
        let a = CsrMatrix::<i64>::new(3, 3);
        let got = mxm(&gpu, &a, &a, PlusTimes::<i64>::new());
        assert_eq!(got.nnz(), 0);
        assert_eq!((got.nrows(), got.ncols()), (3, 3));
    }

    #[test]
    fn masked_dot_matches_seq_masked() {
        let gpu = Gpu::default();
        let a = mat(
            &[
                (0, 0, 1),
                (0, 1, 2),
                (1, 0, 3),
                (1, 2, 4),
                (2, 1, 5),
                (2, 2, 6),
            ],
            3,
            3,
        );
        let b = mat(&[(0, 0, 7), (1, 1, 8), (1, 2, 1), (2, 0, 9)], 3, 3);
        let mut mcoo = CooMatrix::new(3, 3);
        for &(i, j) in &[(0, 0), (0, 2), (1, 0), (2, 1), (2, 2)] {
            mcoo.push(i, j, true);
        }
        let mask = CsrMatrix::from_coo(mcoo, |x, _| x);

        let expected = gbtl_backend_seq::mxm_masked(&mask, &a, &b, PlusTimes::<i64>::new());
        let got = mxm_masked(&gpu, &mask, &a, &b.to_csc(), PlusTimes::<i64>::new());
        assert_eq!(got, expected);
    }

    #[test]
    fn masked_dot_empty_mask() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 0, 1)], 2, 2);
        let mask = CsrMatrix::<bool>::new(2, 2);
        let got = mxm_masked(&gpu, &mask, &a, &a.to_csc(), PlusTimes::<i64>::new());
        assert_eq!(got.nnz(), 0);
    }

    #[test]
    fn esc_charges_expand_sort_compress_kernels() {
        let gpu = Gpu::default();
        let a = mat(&[(0, 0, 1), (0, 1, 1), (1, 0, 1)], 2, 2);
        let _ = mxm(&gpu, &a, &a, PlusTimes::<i64>::new());
        let s = gpu.stats();
        // expand + 4 radix passes + reduce_by_key + compress pieces, at least
        assert!(s.kernels_launched >= 7, "launched {}", s.kernels_launched);
        assert!(s.mem_transactions > 0);
    }
}
