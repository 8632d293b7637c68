//! ELL and HYB SpMV — the two fixed-width formats of experiment R-A1.
//!
//! Unlike the CSR kernels in [`crate::spmv`], whose rows are the
//! sequential row fold, these walk their own storage: ELL slot by slot,
//! column-major, and HYB's overflow as COO triples.

use gbtl_algebra::{BinaryOp, Scalar, Semiring};
use gbtl_gpu_sim::{primitives as prim, Gpu, KernelTally};
use gbtl_sparse::{DenseVector, VecMask};

/// Rows (threads) per block for the ELL launch.
const BLOCK_DIM: usize = 256;

/// The rows of one warp, `first..end`, that the mask keeps.
fn kept_rows(rows: &mut Vec<usize>, first: usize, end: usize, mask: Option<VecMask<'_>>) {
    rows.clear();
    rows.extend((first..end).filter(|&r| mask.is_none_or(|keep| keep.keeps(r))));
}

/// ELL SpMV: `w = A ⊕.⊗ u` over an ELLPACK operand.
///
/// Lane `r` of each warp walks slot `k` of row `r`; slots are stored
/// column-major so the column/value loads of a warp-step are *always*
/// contiguous — perfect coalescing with no row-pointer traffic. The cost
/// is that every row pays `width` steps: padding slots still burn
/// instructions and (mostly) transactions, which is exactly ELL's failure
/// mode on skewed graphs (experiment R-A1).
pub fn mxv_ell<T, S>(
    gpu: &Gpu,
    a: &gbtl_sparse::EllMatrix<T>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> DenseVector<T>
where
    T: Scalar,
    S: Semiring<T>,
{
    assert_eq!(a.ncols(), u.len(), "mxv dimension mismatch");
    if let Some(keep) = mask {
        assert_eq!(keep.len(), a.nrows(), "mask length must equal output size");
    }
    let (add, mul) = (sr.add(), sr.mul());
    let uvals = u.options();
    let val_sz = std::mem::size_of::<T>();
    let u_sz = std::mem::size_of::<Option<T>>();
    let nrows = a.nrows();
    let width = a.width();
    // Lane scratch, reused from warp to warp.
    let (mut rows, mut positions, mut xcols) = (vec![], vec![], vec![]);

    let mut out: Vec<Option<T>> = vec![None; nrows];
    gpu.launch_chunks("spmv_ell", &mut out, BLOCK_DIM, |b, slice, ctx| {
        let row0 = b * BLOCK_DIM;
        let ws = ctx.warp_size();
        for warp_start in (0..slice.len()).step_by(ws) {
            let warp_end = (warp_start + ws).min(slice.len());
            kept_rows(&mut rows, row0 + warp_start, row0 + warp_end, mask);
            if rows.is_empty() {
                continue;
            }
            for k in 0..width {
                // Column-major slot addresses: k*nrows + r for consecutive
                // r — contiguous, so the estimator sees full coalescing.
                positions.clear();
                positions.extend(rows.iter().map(|&r| k * nrows + r));
                ctx.warp_read(8, &positions);
                ctx.warp_read(val_sz, &positions);
                // x gather at the active lanes' (non-pad) columns
                xcols.clear();
                for &r in &rows {
                    let j = a.col_at(r, k);
                    if j != gbtl_sparse::ELL_PAD {
                        xcols.push(j);
                        if let Some(uj) = uvals[j] {
                            let term = mul.apply(a.val_at(r, k), uj);
                            let acc = &mut slice[r - row0];
                            *acc = Some(match *acc {
                                Some(v) => add.apply(v, term),
                                None => term,
                            });
                        }
                    }
                }
                if !xcols.is_empty() {
                    ctx.warp_read(u_sz, &xcols);
                }
                ctx.instr(2);
            }
            ctx.warp_write(u_sz, &rows);
        }
    });
    DenseVector::from_options(out)
}

#[cfg(test)]
mod ell_tests {
    use super::*;
    use gbtl_algebra::PlusTimes;
    use gbtl_sparse::{CooMatrix, CsrMatrix, EllMatrix};

    fn graph() -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(4, 4);
        for &(i, j, v) in &[
            (0, 1, 3),
            (0, 2, 1),
            (1, 2, 1),
            (2, 0, 2),
            (2, 3, 8),
            (3, 0, 1),
            (3, 1, 1),
            (3, 2, 1),
        ] {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    fn dense(vals: &[i64]) -> DenseVector<i64> {
        let mut d = DenseVector::new(vals.len());
        for (i, &v) in vals.iter().enumerate() {
            d.set(i, v);
        }
        d
    }

    #[test]
    fn ell_kernel_matches_seq() {
        let gpu = Gpu::default();
        let csr = graph();
        let ell = EllMatrix::from_csr(&csr, 0);
        let u = dense(&[1, 10, 100, 1000]);
        let expected = gbtl_backend_seq::mxv(&csr, &u, PlusTimes::<i64>::new(), None);
        let got = mxv_ell(&gpu, &ell, &u, PlusTimes::<i64>::new(), None);
        assert_eq!(got, expected);
    }

    #[test]
    fn ell_kernel_respects_mask() {
        let gpu = Gpu::default();
        let ell = EllMatrix::from_csr(&graph(), 0);
        let u = dense(&[1, 1, 1, 1]);
        let keep = [false, true, false, true];
        let got = mxv_ell(
            &gpu,
            &ell,
            &u,
            PlusTimes::<i64>::new(),
            Some(VecMask::from(&keep[..])),
        );
        assert_eq!(got.get(0), None);
        assert!(got.get(1).is_some());
        assert_eq!(got.get(2), None);
    }

    #[test]
    fn ell_pays_for_padding() {
        // One heavy row forces every row to `width` steps: ELL issues far
        // more instructions than the CSR vector kernel on skew.
        let mut coo = CooMatrix::new(64, 512);
        for j in 0..512 {
            coo.push(0, j, 1i64);
        }
        for r in 1..64 {
            coo.push(r, r, 1i64);
        }
        let csr = CsrMatrix::from_coo(coo, |a, _| a);
        let ell = EllMatrix::from_csr(&csr, 0);
        assert!(ell.padding_ratio() > 0.9);
        let u = DenseVector::filled(512, 1i64);

        let gpu_e = Gpu::default();
        let _ = mxv_ell(&gpu_e, &ell, &u, PlusTimes::<i64>::new(), None);
        let gpu_v = Gpu::default();
        let _ = crate::spmv::mxv(
            &gpu_v,
            &csr,
            &u,
            PlusTimes::<i64>::new(),
            None,
            crate::SpmvKernel::Vector,
            &crate::SpmvProfiles::new(),
        );
        let (ie, iv) = (
            gpu_e.stats().warp_instructions,
            gpu_v.stats().warp_instructions,
        );
        assert!(
            ie > 3 * iv,
            "ELL should burn many more instructions on skew: {ie} vs {iv}"
        );
    }
}

/// HYB SpMV: ELL kernel for the regular part plus an atomic COO kernel for
/// the overflow — CUSP's default format pairing.
///
/// The overflow kernel streams the COO triples coalesced and combines into
/// the output with one atomic per overflow entry (the `atomicAdd`-style
/// segmented accumulation CUSP's `spmv_coo_flat` approximates).
pub fn mxv_hyb<T, S>(
    gpu: &Gpu,
    a: &gbtl_sparse::HybMatrix<T>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> DenseVector<T>
where
    T: Scalar,
    S: Semiring<T>,
{
    assert_eq!(a.ncols(), u.len(), "mxv dimension mismatch");
    let (add, mul) = (sr.add(), sr.mul());
    // Regular part.
    let mut out = mxv_ell(gpu, a.ell(), u, sr, mask);
    // Overflow part: functional combine + atomic-kernel cost.
    let (rows, cols, vals) = a.coo();
    let uvals = u.options();
    for ((&i, &j), &v) in rows.iter().zip(cols).zip(vals) {
        if mask.is_some_and(|keep| !keep.keeps(i)) {
            continue;
        }
        if let Some(uj) = uvals[j] {
            let term = mul.apply(v, uj);
            match out.get(i) {
                Some(cur) => out.set(i, add.apply(cur, term)),
                None => out.set(i, term),
            }
        }
    }
    let n = rows.len();
    if n > 0 {
        let txn = gpu.config().mem_transaction_bytes as u64;
        let val_sz = std::mem::size_of::<T>() as u64;
        let u_sz = std::mem::size_of::<Option<T>>();
        gpu.charge_kernel(
            "spmv_coo_overflow",
            n.div_ceil(256).max(1),
            KernelTally {
                warp_instructions: 3 * (n as u64).div_ceil(gpu.config().warp_size as u64),
                mem_transactions: ((n as u64) * (16 + val_sz)).div_ceil(txn)
                    + prim::gather_cost(gpu, cols, u_sz),
                atomic_ops: n as u64,
            },
        );
    }
    out
}

#[cfg(test)]
mod hyb_tests {
    use super::*;
    use gbtl_algebra::PlusTimes;
    use gbtl_sparse::{CooMatrix, CsrMatrix, HybMatrix};

    #[test]
    fn hyb_matches_seq_on_skewed_graph() {
        // heavy row 0 + light rows: the split exercises both kernels
        let mut coo = CooMatrix::new(6, 8);
        for j in 0..7 {
            coo.push(0, j, (j + 1) as i64);
        }
        for r in 1..6 {
            coo.push(r, r, 10 * r as i64);
        }
        let csr = CsrMatrix::from_coo(coo, |a, _| a);
        let hyb = HybMatrix::from_csr(&csr, 0);
        assert!(hyb.overflow_ratio() > 0.0, "split must produce overflow");

        let mut u = DenseVector::new(8);
        for i in 0..8 {
            u.set(i, (i + 1) as i64);
        }
        let expected = gbtl_backend_seq::mxv(&csr, &u, PlusTimes::<i64>::new(), None);
        let gpu = Gpu::default();
        let got = mxv_hyb(&gpu, &hyb, &u, PlusTimes::<i64>::new(), None);
        assert_eq!(got, expected);
        assert!(
            gpu.stats().atomic_ops > 0,
            "overflow kernel charges atomics"
        );
    }

    #[test]
    fn hyb_with_mask() {
        let mut coo = CooMatrix::new(4, 4);
        for j in 0..4 {
            coo.push(0, j, 1i64);
        }
        coo.push(2, 1, 5);
        let csr = CsrMatrix::from_coo(coo, |a, _| a);
        let hyb = HybMatrix::from_csr_with_width(&csr, 1, 0);
        let u = DenseVector::filled(4, 1i64);
        let keep = [false, true, true, true];
        let gpu = Gpu::default();
        let got = mxv_hyb(
            &gpu,
            &hyb,
            &u,
            PlusTimes::<i64>::new(),
            Some(VecMask::from(&keep[..])),
        );
        let expected = gbtl_backend_seq::mxv(
            &csr,
            &u,
            PlusTimes::<i64>::new(),
            Some(VecMask::from(&keep[..])),
        );
        assert_eq!(got, expected);
    }
}
