//! Parallel reductions with a *fixed-block* tree — a different algorithm
//! from the sequential single left fold, and so this crate's own.
//!
//! Scalar reductions fold fixed 4096-element blocks independently, then
//! fold the per-block partials left-to-right. The block size never depends
//! on the thread count, so the association pattern — hence the result —
//! is identical at 1, 2, or 64 threads. For exactly associative monoids
//! (all integer, boolean, min and max monoids in `gbtl-algebra`) the
//! result is also bit-identical to the sequential backend's single left
//! fold. For floating-point `+`/`×` the blocked association can round
//! differently from the sequential fold — still deterministic, just a
//! documented reassociation (the same caveat every parallel BLAS carries).
//!
//! Row reductions (`reduce_rows`) have no such caveat: each row is folded
//! whole by `gbtl_backend_seq::reduce_rows_range`, so all monoids,
//! including floating-point ones, reduce bit-identically to the seq backend.

use crate::pool::ThreadPool;
use crate::schedule::{join_entries, over_rows};
use gbtl_algebra::{Monoid, Scalar};
use gbtl_backend_seq::reduce_rows_range;
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector};

/// Elements per reduction block. Fixed (never derived from the thread
/// count) so the combining tree is reproducible on any machine.
pub const REDUCE_BLOCK: usize = 4096;

/// Fold a value slice blockwise; `None` when empty.
fn reduce_slice<T, M>(pool: &ThreadPool, vals: &[T], monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    if vals.is_empty() {
        return None;
    }
    let nblocks = vals.len().div_ceil(REDUCE_BLOCK);
    let partials = pool.run_tasks(nblocks, |b| {
        let lo = b * REDUCE_BLOCK;
        let hi = (lo + REDUCE_BLOCK).min(vals.len());
        let (first, rest) = vals[lo..hi].split_first().expect("block non-empty");
        rest.iter().fold(*first, |acc, &v| monoid.apply(acc, v))
    });
    let (first, rest) = partials.split_first().expect("at least one block");
    Some(rest.iter().fold(*first, |acc, &v| monoid.apply(acc, v)))
}

/// Reduce all stored entries of `A`; `None` for an entryless matrix.
pub fn reduce_mat<T, M>(pool: &ThreadPool, a: &CsrMatrix<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    reduce_slice(pool, a.vals(), monoid)
}

/// Reduce a sparse vector's stored values; `None` when empty.
pub fn reduce_sparse_vec<T, M>(pool: &ThreadPool, u: &SparseVector<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    reduce_slice(pool, u.values(), monoid)
}

/// Reduce all present entries of a dense vector; `None` when none present.
pub fn reduce_vec<T, M>(pool: &ThreadPool, u: &DenseVector<T>, monoid: M) -> Option<T>
where
    T: Scalar,
    M: Monoid<T>,
{
    let opts = u.options();
    if opts.is_empty() {
        return None;
    }
    let nblocks = opts.len().div_ceil(REDUCE_BLOCK);
    let partials = pool.run_tasks(nblocks, |b| {
        let lo = b * REDUCE_BLOCK;
        let hi = (lo + REDUCE_BLOCK).min(opts.len());
        let mut acc: Option<T> = None;
        for v in opts[lo..hi].iter().flatten() {
            acc = Some(match acc {
                Some(a) => monoid.apply(a, *v),
                None => *v,
            });
        }
        acc
    });
    partials
        .into_iter()
        .flatten()
        .reduce(|a, v| monoid.apply(a, v))
}

/// Row-wise reduction `w_i = ⊕ A(i, :)`; empty rows stay absent. Each row
/// folds whole in the sequential kernel — bit-identical to seq for *every*
/// monoid.
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
    use gbtl_algebra::{MaxMonoid, MinMonoid, PlusMonoid};
    use gbtl_sparse::CooMatrix;

    fn mat() -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(50, 50);
        for k in 0..400usize {
            coo.push((k * 7) % 50, (k * 13) % 50, k as i64 - 200);
        }
        CsrMatrix::from_coo(coo, |a, b| a + b)
    }

    #[test]
    fn scalar_reduces_match_seq() {
        let a = mat();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            assert_eq!(
                reduce_mat(&pool, &a, PlusMonoid::<i64>::new()),
                gbtl_backend_seq::reduce_mat(&a, PlusMonoid::<i64>::new())
            );
            assert_eq!(
                reduce_mat(&pool, &a, MinMonoid::<i64>::new()),
                gbtl_backend_seq::reduce_mat(&a, MinMonoid::<i64>::new())
            );
        }
        let empty = CsrMatrix::<i64>::new(4, 4);
        let pool = ThreadPool::with_threads(4);
        assert_eq!(reduce_mat(&pool, &empty, PlusMonoid::<i64>::new()), None);
    }

    #[test]
    fn row_and_vector_reduces_match_seq() {
        let a = mat();
        let want_rows = gbtl_backend_seq::reduce_rows(&a, MaxMonoid::<i64>::new());
        let mut d = DenseVector::new(100);
        for i in (0..100).step_by(3) {
            d.set(i, i as i64 * 2 - 50);
        }
        let s = d.to_sparse();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            assert_eq!(reduce_rows(&pool, &a, MaxMonoid::<i64>::new()), want_rows);
            assert_eq!(
                reduce_vec(&pool, &d, PlusMonoid::<i64>::new()),
                gbtl_backend_seq::reduce_vec(&d, PlusMonoid::<i64>::new())
            );
            assert_eq!(
                reduce_sparse_vec(&pool, &s, PlusMonoid::<i64>::new()),
                gbtl_backend_seq::reduce_sparse_vec(&s, PlusMonoid::<i64>::new())
            );
        }
    }
}
