//! Parallel transpose: each task owns a contiguous range of *output* rows
//! (= input columns) and runs a private counting sort over them — a
//! different algorithm from `CsrMatrix::transpose`'s single scatter, which
//! has no row-range form (every input row feeds every output range).
//!
//! Both sweeps walk the input rows in ascending order and narrow each
//! row's sorted column slice to the owned range with `partition_point`,
//! so per output row the entries arrive with `i` ascending — the exact
//! order `CsrMatrix::transpose` produces. Tasks write only their own
//! buffers; chunks stitch back in column order.

use crate::pool::ThreadPool;
use crate::schedule::over_range;
use gbtl_algebra::Scalar;
use gbtl_backend_seq::{stitch_rows, RowChunk};
use gbtl_sparse::CsrMatrix;

/// `C = Aᵀ`. Bit-identical to `CsrMatrix::transpose` at any thread count.
pub fn transpose<T: Scalar>(pool: &ThreadPool, a: &CsrMatrix<T>) -> CsrMatrix<T> {
    let (m, n) = (a.nrows(), a.ncols());
    let parts = over_range(pool, n, |cols| {
        let width = cols.len();
        // Sweep 1: entries per owned column, prefix-summed into the
        // chunk's local row offsets.
        let mut row_ptr = vec![0usize; width + 1];
        for i in 0..m {
            let (rc, _) = a.row(i);
            let lo = rc.partition_point(|&j| j < cols.start);
            for &j in &rc[lo..] {
                if j >= cols.end {
                    break;
                }
                row_ptr[j - cols.start + 1] += 1;
            }
        }
        for k in 0..width {
            row_ptr[k + 1] += row_ptr[k];
        }
        // Sweep 2: place entries at per-column cursors.
        let total = row_ptr[width];
        let mut cursors = row_ptr[..width].to_vec();
        let mut col_idx = vec![0usize; total];
        let mut vals: Vec<T> = Vec::new();
        if total > 0 {
            // total > 0 implies the matrix has at least one entry to use as
            // a fill value (so the buffer is never uninitialised).
            vals = vec![a.vals()[0]; total];
            for i in 0..m {
                let (rc, rv) = a.row(i);
                let lo = rc.partition_point(|&j| j < cols.start);
                for (&j, &v) in rc[lo..].iter().zip(&rv[lo..]) {
                    if j >= cols.end {
                        break;
                    }
                    let cur = &mut cursors[j - cols.start];
                    col_idx[*cur] = i;
                    vals[*cur] = v;
                    *cur += 1;
                }
            }
        }
        RowChunk::from_parts(row_ptr, col_idx, vals)
    });
    stitch_rows(n, m, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_sparse::CooMatrix;

    #[test]
    fn matches_builtin_transpose() {
        let mut coo = CooMatrix::new(7, 5);
        for k in 0..23usize {
            coo.push((k * 3) % 7, (k * 2) % 5, k as i64);
        }
        let a = CsrMatrix::from_coo(coo, |x, y| x + y);
        let want = a.transpose();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            let got = transpose(&pool, &a);
            got.validate().unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::<i64>::new(3, 4);
        let pool = ThreadPool::with_threads(4);
        let t = transpose(&pool, &a);
        assert_eq!((t.nrows(), t.ncols(), t.nnz()), (4, 3, 0));
    }
}
