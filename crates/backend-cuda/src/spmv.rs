//! Sparse matrix–vector kernels.
//!
//! Two CSR SpMV kernels, matching the classic CUDA pair the paper's backend
//! chooses between (experiment R-A1):
//!
//! * **scalar** — one thread per row. Lane `l` of a warp walks row `r+l`;
//!   at each step the 32 lanes load from 32 *different* rows, so the column
//!   and value loads almost never coalesce, and warps idle when row lengths
//!   diverge (degree skew).
//! * **vector** — one warp per row. The 32 lanes read 32 *consecutive*
//!   entries of one row per step (coalesced), then combine with a warp
//!   shuffle reduction. Wins on skewed/heavy rows, wastes lanes on rows
//!   shorter than a warp.
//!
//! Plus the push-direction [`vxm`]: frontier expansion by gather → sort →
//! reduce-by-key, the CUSP formulation of the BFS/SSSP step.

use gbtl_algebra::{BinaryOp, Scalar, Semiring};
// The functional result of every SpMV kernel below is the sequential row
// fold; the kernels differ only in how the device would schedule (and so be
// charged for) it.
use gbtl_backend_seq::row_dot;
use gbtl_gpu_sim::{primitives as prim, Gpu, KernelTally};
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector, VecMask};

/// Rows (threads) per block for the SpMV launches.
const BLOCK_DIM: usize = 256;

/// CSR SpMV kernel selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpmvKernel {
    /// Thread-per-row.
    Scalar,
    /// Warp-per-row.
    Vector,
    /// Pick by average degree (≥ 6 nnz/row → vector), the CUSP heuristic.
    #[default]
    Auto,
}

impl SpmvKernel {
    fn resolve<D1: Scalar>(self, a: &CsrMatrix<D1>) -> SpmvKernel {
        match self {
            SpmvKernel::Auto => {
                if a.nrows() > 0 && a.nnz() / a.nrows() >= 6 {
                    SpmvKernel::Vector
                } else {
                    SpmvKernel::Scalar
                }
            }
            k => k,
        }
    }
}

/// Pull-direction product `w = A ⊕.⊗ u` on the device.
///
/// Semantically identical to the sequential backend's `mxv`; the kernel
/// choice changes only the modeled cost profile.
pub fn mxv<T, D1, S>(
    gpu: &Gpu,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
    kernel: SpmvKernel,
) -> DenseVector<T>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    assert_eq!(a.ncols(), u.len(), "mxv dimension mismatch");
    if let Some(keep) = mask {
        assert_eq!(keep.len(), a.nrows(), "mask length must equal output size");
    }
    let mut out: Vec<Option<T>> = vec![None; a.nrows()];
    match kernel.resolve(a) {
        SpmvKernel::Scalar => spmv_scalar(gpu, a, u, sr, mask, &mut out),
        SpmvKernel::Vector => spmv_vector(gpu, a, u, sr, mask, &mut out),
        SpmvKernel::Auto => unreachable!("resolved above"),
    }
    DenseVector::from_options(out)
}

/// The rows of one warp, `first..end`, that the mask keeps.
fn kept_rows(rows: &mut Vec<usize>, first: usize, end: usize, mask: Option<VecMask<'_>>) {
    rows.clear();
    rows.extend((first..end).filter(|&r| mask.is_none_or(|keep| keep.keeps(r))));
}

fn spmv_scalar<T, D1, S>(
    gpu: &Gpu,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
    out: &mut [Option<T>],
) where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let uvals = u.options();
    let val_sz = std::mem::size_of::<D1>();
    let u_sz = std::mem::size_of::<Option<T>>();
    // Lane scratch, reused from warp to warp: the kept rows, and per step
    // the entry position and column of every lane whose row is not done.
    let (mut rows, mut pos_buf, mut end_buf, mut col_buf) = (vec![], vec![], vec![], vec![]);

    gpu.launch_chunks("spmv_csr_scalar", out, BLOCK_DIM, |b, slice, ctx| {
        let row0 = b * BLOCK_DIM;
        let ws = ctx.warp_size();
        for warp_start in (0..slice.len()).step_by(ws) {
            let warp_end = (warp_start + ws).min(slice.len());
            kept_rows(&mut rows, row0 + warp_start, row0 + warp_end, mask);
            if rows.is_empty() {
                continue;
            }
            // Row-pointer loads (coalesced: consecutive rows).
            ctx.warp_read(8, &rows);
            ctx.warp_read(8, &rows);
            pos_buf.clear();
            end_buf.clear();
            for &r in &rows {
                let (cols, vals) = a.row(r);
                let (dot, consumed) = row_dot(sr, cols, vals, uvals);
                slice[r - row0] = dot;
                if consumed > 0 {
                    pos_buf.push(row_ptr[r]);
                    end_buf.push(row_ptr[r] + consumed);
                }
            }
            // One warp-step per entry of the longest walk; a lane drops out
            // when its row ends or its fold reaches the monoid's terminal
            // value. Columns, values and x are loaded at the lanes' actual
            // addresses (uncoalesced across rows).
            while !pos_buf.is_empty() {
                col_buf.clear();
                col_buf.extend(pos_buf.iter().map(|&p| col_idx[p]));
                ctx.warp_read(8, &pos_buf);
                ctx.warp_read(val_sz, &pos_buf);
                ctx.warp_read(u_sz, &col_buf);
                ctx.instr(2);
                let mut live = 0;
                for lane in 0..pos_buf.len() {
                    let next = pos_buf[lane] + 1;
                    if next < end_buf[lane] {
                        (pos_buf[live], end_buf[live]) = (next, end_buf[lane]);
                        live += 1;
                    }
                }
                pos_buf.truncate(live);
                end_buf.truncate(live);
            }
            // Store results (coalesced over consecutive rows).
            ctx.warp_write(u_sz, &rows);
        }
    });
}

fn spmv_vector<T, D1, S>(
    gpu: &Gpu,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
    out: &mut [Option<T>],
) where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let uvals = u.options();
    let val_sz = std::mem::size_of::<D1>();
    let u_sz = std::mem::size_of::<Option<T>>();

    gpu.launch_chunks("spmv_csr_vector", out, BLOCK_DIM, |b, slice, ctx| {
        let row0 = b * BLOCK_DIM;
        let ws = ctx.warp_size();
        for (k, slot) in slice.iter_mut().enumerate() {
            let r = row0 + k;
            if mask.is_some_and(|keep| !keep.keeps(r)) {
                continue;
            }
            let (lo, row_end) = (row_ptr[r], row_ptr[r + 1]);
            if lo == row_end {
                continue;
            }
            let (cols, vals) = a.row(r);
            let (dot, consumed) = row_dot(sr, cols, vals, uvals);
            *slot = dot;
            // The warp takes the row a stride at a time and stops after the
            // stride in which the fold reached the monoid's terminal value.
            let hi = row_end.min(lo + consumed.next_multiple_of(ws));
            // Row pointer loads by lane 0.
            ctx.warp_read_run(8, r, r + 2);
            for p in (lo..hi).step_by(ws) {
                let end = (p + ws).min(hi);
                // Consecutive positions: coalesced loads.
                ctx.warp_read_run(8, p, end);
                ctx.warp_read_run(val_sz, p, end);
                // x gather at the row's column pattern.
                ctx.warp_read(u_sz, &col_idx[p..end]);
                ctx.instr(2);
            }
            // Warp shuffle reduction of the lanes' partials.
            ctx.block_reduce(ws.min(hi - lo));
            ctx.warp_write(u_sz, &[r]);
        }
    });
}

/// Push-direction product `w = uᵀ ⊕.⊗ A` for a sparse frontier `u` — the
/// CUSP-style gather → sort → reduce-by-key pipeline.
pub fn vxm<T, D2, S>(
    gpu: &Gpu,
    u: &SparseVector<T>,
    a: &CsrMatrix<D2>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> SparseVector<T>
where
    T: Scalar,
    D2: Scalar,
    S: Semiring<T, T, D2>,
{
    assert_eq!(u.len(), a.nrows(), "vxm dimension mismatch");
    if let Some(keep) = mask {
        assert_eq!(keep.len(), a.ncols(), "mask length must equal output size");
    }
    let (add, mul) = (sr.add(), sr.mul());
    let row_ptr = a.row_ptr();
    let frontier = u.indices();

    // 1–2. The device stages each frontier vertex's row start and end (two
    //    gathers of the row pointer, the second one entry on), their
    //    difference, and its scan into output offsets. The expansion below
    //    reads the same numbers off the row pointer as it goes, so the
    //    staging is charged and not built.
    prim::gather::charge_gather::<usize>(gpu, frontier);
    prim::gather::charge_gather::<usize>(gpu, frontier.iter().map(|&i| i + 1));
    prim::map::charge_zip_transform::<usize, usize, usize>(gpu, frontier.len());
    prim::scan::charge_scan::<usize>(gpu, frontier.len());

    // 3–4. Expansion kernel: copy each selected row's columns, combining
    //    the frontier value with the edge value — straight into the key and
    //    value buffers the sort takes, dropping masked-out positions on the
    //    way. The device runs the filter as a `copy_if` over the candidate
    //    pairs, which is what it is charged.
    let total: usize = frontier.iter().map(|&i| a.row_nnz(i)).sum();
    let mut cand_cols: Vec<usize> = Vec::with_capacity(total);
    let mut cand_vals: Vec<T> = Vec::with_capacity(total);
    for (&i, &ui) in frontier.iter().zip(u.values()) {
        let (cols, vals) = a.row(i);
        for (&c, &aic) in cols.iter().zip(vals) {
            if mask.is_none_or(|keep| keep.keeps(c)) {
                cand_cols.push(c);
                cand_vals.push(mul.apply(ui, aic));
            }
        }
    }
    // Cost of the expansion: row starts gather + mostly-coalesced streams of
    // the rows' columns/values + coalesced candidate writes.
    let txn = gpu.config().mem_transaction_bytes as u64;
    let edge_sz = std::mem::size_of::<D2>() as u64;
    let val_sz = std::mem::size_of::<T>() as u64;
    gpu.charge_kernel(
        "vxm_expand",
        u.nnz().div_ceil(BLOCK_DIM).max(1),
        KernelTally {
            warp_instructions: 4 * (total as u64).div_ceil(gpu.config().warp_size as u64),
            mem_transactions: prim::gather_cost(gpu, frontier.iter().map(|&i| row_ptr[i]), 8)
                + (total as u64 * (8 + edge_sz)).div_ceil(txn) // row payload reads
                + (total as u64 * (8 + val_sz)).div_ceil(txn), // candidate writes
            atomic_ops: 0,
        },
    );
    if mask.is_some() {
        prim::compact::charge_compaction::<(usize, T)>(gpu, total, cand_cols.len());
    }

    // 5. Sort by destination and combine duplicates with the add monoid.
    let (sorted_cols, sorted_vals) = prim::sort_pairs(gpu, &cand_cols, &cand_vals);
    let (out_idx, out_vals) =
        prim::reduce_by_key(gpu, &sorted_cols, &sorted_vals, |x, y| add.apply(x, y));

    SparseVector::from_sorted(a.ncols(), out_idx, out_vals).expect("sorted unique indices")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{MinPlus, PlusTimes};
    use gbtl_sparse::CooMatrix;

    fn adj() -> CsrMatrix<i64> {
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
    fn scalar_and_vector_kernels_agree_with_seq() {
        let gpu = Gpu::default();
        let a = adj();
        let u = dense(&[1, 10, 100, 1000]);
        let expected = gbtl_backend_seq::mxv(&a, &u, PlusTimes::<i64>::new(), None);
        let s = mxv(
            &gpu,
            &a,
            &u,
            PlusTimes::<i64>::new(),
            None,
            SpmvKernel::Scalar,
        );
        let v = mxv(
            &gpu,
            &a,
            &u,
            PlusTimes::<i64>::new(),
            None,
            SpmvKernel::Vector,
        );
        assert_eq!(s, expected);
        assert_eq!(v, expected);
    }

    #[test]
    fn masked_mxv_skips_rows() {
        let gpu = Gpu::default();
        let a = adj();
        let u = dense(&[1, 1, 1, 1]);
        let keep = [true, false, true, false];
        let w = mxv(
            &gpu,
            &a,
            &u,
            PlusTimes::<i64>::new(),
            Some(VecMask::from(&keep[..])),
            SpmvKernel::Scalar,
        );
        assert!(w.get(0).is_some());
        assert_eq!(w.get(1), None);
        assert!(w.get(2).is_some());
        assert_eq!(w.get(3), None);
    }

    #[test]
    fn vxm_matches_seq_push() {
        let gpu = Gpu::default();
        let a = adj();
        let mut u = SparseVector::new(4);
        u.set(0, 0i64);
        u.set(3, 5);
        let expected = gbtl_backend_seq::vxm(&u, &a, MinPlus::<i64>::new(), None);
        let got = vxm(&gpu, &u, &a, MinPlus::<i64>::new(), None);
        assert_eq!(got, expected);
    }

    #[test]
    fn vxm_with_mask() {
        let gpu = Gpu::default();
        let a = adj();
        let mut u = SparseVector::new(4);
        u.set(3, 1i64);
        let keep = [false, true, false, false];
        let got = vxm(
            &gpu,
            &u,
            &a,
            PlusTimes::<i64>::new(),
            Some(VecMask::from(&keep[..])),
        );
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![(1, 1)]);
    }

    #[test]
    fn vxm_empty_frontier() {
        let gpu = Gpu::default();
        let a = adj();
        let u = SparseVector::<i64>::new(4);
        let got = vxm(&gpu, &u, &a, PlusTimes::<i64>::new(), None);
        assert_eq!(got.nnz(), 0);
    }

    #[test]
    fn auto_kernel_picks_by_degree() {
        let a = adj(); // 8 nnz / 4 rows = 2 -> scalar
        assert_eq!(SpmvKernel::Auto.resolve(&a), SpmvKernel::Scalar);
        let mut coo = CooMatrix::new(2, 64);
        for j in 0..64 {
            coo.push(0, j, 1i64);
            coo.push(1, j, 1);
        }
        let heavy = CsrMatrix::from_coo(coo, |a, _| a);
        assert_eq!(SpmvKernel::Auto.resolve(&heavy), SpmvKernel::Vector);
    }

    #[test]
    fn vector_kernel_coalesces_better_on_heavy_rows() {
        // A single dense-ish row: the vector kernel's column/value loads are
        // consecutive, the scalar kernel's are one-lane-at-a-time.
        let mut coo = CooMatrix::new(32, 512);
        for j in 0..512 {
            coo.push(0, j, 1i64);
        }
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let u = DenseVector::filled(512, 1i64);

        let gpu_s = Gpu::default();
        let _ = mxv(
            &gpu_s,
            &a,
            &u,
            PlusTimes::<i64>::new(),
            None,
            SpmvKernel::Scalar,
        );
        let gpu_v = Gpu::default();
        let _ = mxv(
            &gpu_v,
            &a,
            &u,
            PlusTimes::<i64>::new(),
            None,
            SpmvKernel::Vector,
        );
        let (ts, tv) = (
            gpu_s.stats().mem_transactions,
            gpu_v.stats().mem_transactions,
        );
        assert!(
            tv < ts,
            "vector kernel ({tv} txns) should beat scalar ({ts} txns) on a heavy row"
        );
    }
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
    use gbtl_sparse::{CooMatrix, EllMatrix};

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
        let mut out = vec![None; 64];
        spmv_vector(&gpu_v, &csr, &u, PlusTimes::<i64>::new(), None, &mut out);
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
    use gbtl_sparse::{CooMatrix, HybMatrix};

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
