//! Parallel sparse matrix–matrix multiply: Gustavson rows scheduled over
//! the pool. Every row is computed by `gbtl_backend_seq::mxm_rows` itself,
//! so the product is bit-identical to the sequential one at any thread
//! count — the reduction order per output entry cannot change.

use crate::pool::ThreadPool;
use crate::schedule::over_rows;
use gbtl_algebra::{Scalar, Semiring};
use gbtl_backend_seq::{mxm_masked_rows, mxm_rows, stitch_rows};
use gbtl_sparse::CsrMatrix;

/// `C = A ⊕.⊗ B` over the semiring, rows balanced on `A`'s entries.
pub fn mxm<T, D1, D2, S>(
    pool: &ThreadPool,
    a: &CsrMatrix<D1>,
    b: &CsrMatrix<D2>,
    sr: S,
) -> CsrMatrix<T>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    let parts = over_rows(pool, a.row_ptr(), |rows| mxm_rows(a, b, sr, rows));
    stitch_rows(a.nrows(), b.ncols(), parts)
}

/// Masked multiply `C<M> = A ⊕.⊗ B`, computing only positions present in
/// the structural mask.
pub fn mxm_masked<T, D1, D2, S>(
    pool: &ThreadPool,
    mask: &CsrMatrix<bool>,
    a: &CsrMatrix<D1>,
    b: &CsrMatrix<D2>,
    sr: S,
) -> CsrMatrix<T>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    let parts = over_rows(pool, a.row_ptr(), |rows| {
        mxm_masked_rows(mask, a, b, sr, rows)
    });
    stitch_rows(a.nrows(), b.ncols(), parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{MinPlus, PlusTimes};
    use gbtl_sparse::CooMatrix;

    fn from_dense(d: &[&[i64]]) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(d.len(), d[0].len());
        for (i, row) in d.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0 {
                    coo.push(i, j, v);
                }
            }
        }
        CsrMatrix::from_coo(coo, |x, _| x)
    }

    #[test]
    fn mxm_matches_seq_at_many_thread_counts() {
        let a = from_dense(&[&[1, 2, 0, 0], &[0, 0, 3, 1], &[5, 0, 0, 2], &[0, 4, 0, 0]]);
        let b = from_dense(&[&[1, 0, 2, 0], &[0, 3, 0, 1], &[4, 0, 5, 0], &[0, 6, 0, 7]]);
        let want = gbtl_backend_seq::mxm(&a, &b, PlusTimes::<i64>::new());
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            let got = mxm(&pool, &a, &b, PlusTimes::<i64>::new());
            got.validate().unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn mxm_min_plus_matches_seq() {
        let a = from_dense(&[&[0, 5, 0], &[0, 0, 7], &[100, 0, 0]]);
        let want = gbtl_backend_seq::mxm(&a, &a, MinPlus::<i64>::new());
        let pool = ThreadPool::with_threads(3);
        assert_eq!(mxm(&pool, &a, &a, MinPlus::<i64>::new()), want);
    }

    /// Rows on both sides of seq's sweep rule (row 0 scans 9 ≥ 6 entries
    /// of `B`, row 3 exactly 6; row 1 scans 5, row 2 none), split across
    /// 1, 2 and 3 threads, equal seq's product bit for bit.
    #[test]
    fn swept_and_sorted_rows_match_seq_at_1_2_3_threads() {
        use gbtl_algebra::LorLand;
        fn check<T: Scalar, S: Semiring<T>>(sr: S, va: [T; 8], vb: [T; 9], bits: fn(T) -> u64) {
            let a_cols = vec![0, 1, 2, 0, 2, 3, 1, 2];
            let a = CsrMatrix::from_parts(4, 4, vec![0, 3, 5, 6, 8], a_cols, va.to_vec());
            let b_cols = vec![0, 2, 4, 1, 2, 3, 5, 1, 5];
            let b = CsrMatrix::from_parts(4, 6, vec![0, 3, 7, 9, 9], b_cols, vb.to_vec());
            let (a, b) = (a.unwrap(), b.unwrap());
            let want = gbtl_backend_seq::mxm(&a, &b, sr);
            for threads in [1, 2, 3] {
                let got = mxm(&ThreadPool::with_threads(threads), &a, &b, sr);
                got.validate().unwrap();
                assert_eq!(got.row_ptr(), want.row_ptr(), "threads={threads}");
                assert_eq!(got.col_idx(), want.col_idx(), "threads={threads}");
                let got_bits: Vec<u64> = got.vals().iter().map(|&v| bits(v)).collect();
                let want_bits: Vec<u64> = want.vals().iter().map(|&v| bits(v)).collect();
                assert_eq!(got_bits, want_bits, "threads={threads}");
            }
        }
        let t = true;
        let (f, nan1, nan2) = (false, f64::from_bits(0x7ff8_0000_0000_0001), f64::NAN);
        check(
            LorLand::new(),
            [t, t, f, t, t, f, t, t],
            [t, f, t, t, t, f, t, t, t],
            |v| v as u64,
        );
        check(
            MinPlus::<u32>::new(),
            [3, 1, 4, 1, 5, 9, 2, 6],
            [5, 3, 5, 8, 9, 7, 9, 3, 2],
            u64::from,
        );
        check(
            PlusTimes::<f64>::new(),
            [-0.0, 1.5, nan1, 2.0, -1.0, 7.0, -0.0, nan2],
            [-0.0, 3.0, -2.5, nan2, -0.0, 1.0, -4.0, 0.25, nan1],
            f64::to_bits,
        );
    }

    #[test]
    fn mxm_empty_result() {
        let a = from_dense(&[&[0, 1], &[0, 0]]);
        let b = from_dense(&[&[0, 1], &[0, 0]]);
        // a*b reaches only row 0 -> col 1 via k=1, but b row 1 is empty.
        let pool = ThreadPool::with_threads(4);
        let got = mxm(&pool, &a, &b, PlusTimes::<i64>::new());
        assert_eq!(got.nnz(), 0);
        got.validate().unwrap();
    }

    #[test]
    fn masked_mxm_matches_seq() {
        let a = from_dense(&[&[1, 2, 0], &[3, 0, 4], &[0, 5, 6]]);
        let b = from_dense(&[&[1, 0, 2], &[0, 3, 0], &[4, 0, 5]]);
        let mut mcoo = CooMatrix::new(3, 3);
        for i in 0..3 {
            mcoo.push(i, i, true);
        }
        mcoo.push(0, 2, true);
        let mask = CsrMatrix::from_coo(mcoo, |x, _| x);
        let want = gbtl_backend_seq::mxm_masked(&mask, &a, &b, PlusTimes::<i64>::new());
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            let got = mxm_masked(&pool, &mask, &a, &b, PlusTimes::<i64>::new());
            got.validate().unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }
}
