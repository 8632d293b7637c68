//! Parallel row-wise reduction `w_i = ⊕ A(i, :)`: each row is folded
//! whole by `gbtl_backend_seq::reduce_rows_range` on nnz-balanced row
//! chunks, so every monoid, floating-point ones included, reduces
//! bit-identically to the seq backend. Whole-matrix and vector folds are
//! not here: a parallel scalar fold reassociates the monoid, and none
//! earned its fan-out (EXPERIMENTS.md R-P26).

use crate::pool::ThreadPool;
use crate::schedule::{join_entries, over_rows};
use gbtl_algebra::{Monoid, Scalar};
use gbtl_backend_seq::reduce_rows_range;
use gbtl_sparse::{CsrMatrix, SparseVector};

/// Row-wise reduction `w_i = ⊕ A(i, :)`; empty rows stay absent.
pub fn reduce_rows<T, M>(pool: &ThreadPool, a: &CsrMatrix<T>, monoid: M) -> SparseVector<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    let parts = over_rows(pool, a.row_ptr(), |rows| reduce_rows_range(a, monoid, rows));
    let (idx, vals) = join_entries(parts);
    SparseVector::from_sorted(a.nrows(), idx, vals).expect("row chunks ascend")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{MaxMonoid, PlusMonoid};
    use gbtl_sparse::CooMatrix;

    #[test]
    fn row_reduces_match_seq() {
        let (mut coo, mut coo_f) = (CooMatrix::new(50, 50), CooMatrix::new(50, 50));
        for k in 0..400usize {
            let (i, j) = ((k * 7) % 50, (k * 13) % 50);
            coo.push(i, j, k as i64 - 200);
            // sevenths round, so a reordered fold changes bits
            coo_f.push(i, j, (k as f64 - 200.0) / 7.0);
        }
        let a = CsrMatrix::from_coo(coo, |a, b| a + b);
        let af = CsrMatrix::from_coo(coo_f, |a, b| a + b);
        let want = gbtl_backend_seq::reduce_rows(&a, MaxMonoid::<i64>::new());
        let want_f = gbtl_backend_seq::reduce_rows(&af, PlusMonoid::<f64>::new());
        let bits =
            |w: &SparseVector<f64>| w.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            assert_eq!(reduce_rows(&pool, &a, MaxMonoid::<i64>::new()), want);
            let got = reduce_rows(&pool, &af, PlusMonoid::<f64>::new());
            assert_eq!(
                (got.indices(), bits(&got)),
                (want_f.indices(), bits(&want_f))
            );
        }
    }
}
