//! The parallel matrix–vector product: pull only.
//!
//! [`mxv`]: rows are split into nnz-balanced contiguous chunks (binary
//! search over `row_ptr`, merge-path style) and each chunk is
//! `gbtl_backend_seq::RowFold::mxv_rows` over one fold, so results are
//! bit-identical to the sequential `mxv`.
//!
//! There is no parallel push. `vxm` scatters into output columns, so a row
//! split would have tasks collide; the bit-identical alternative this
//! crate used to own split the output **columns** instead, every range
//! walking the whole frontier and binary-searching each adjacency row down
//! to its own columns. That walk is the kernel's own inflation — 30–50 ns
//! per (frontier row, range) pair on rows of ≈ 35 entries and 110–170 ns
//! on hub-neighbour rows of ≈ 150, i.e. 10–40 edges of the sequential
//! kernel — and with warm persistent workers on two real CPUs it only
//! tied the sequential kernel on the one kind of frontier where it was
//! predicted to win, and lost on every other (EXPERIMENTS.md R-P20). The
//! parallel backend therefore inherits the sequential `vxm`.

use crate::pool::ThreadPool;
use crate::schedule::{join_dense, over_rows};
use gbtl_algebra::{Scalar, Semiring};
use gbtl_backend_seq::RowFold;
use gbtl_sparse::{CsrMatrix, DenseVector, VecMask};

/// Pull-direction product `w = A ⊕.⊗ u`; `mask` is a keep test over
/// output rows.
pub fn mxv<T, D1, S>(
    pool: &ThreadPool,
    a: &CsrMatrix<D1>,
    u: &DenseVector<T>,
    sr: S,
    mask: Option<VecMask<'_>>,
) -> DenseVector<T>
where
    T: Scalar,
    D1: Scalar,
    S: Semiring<T, D1, T>,
{
    // one fold for every range: the slots, when `u` picks them, are built once
    let fold = RowFold::new(sr, a, u, mask);
    let segments = over_rows(pool, a.row_ptr(), |rows| fold.mxv_rows(rows));
    join_dense(a.nrows(), segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{nnz_balanced_rows, OVERSPLIT};
    use gbtl_algebra::PlusTimes;
    use gbtl_sparse::CooMatrix;

    fn adj() -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 3);
        coo.push(0, 2, 1);
        coo.push(1, 2, 1);
        coo.push(2, 0, 2);
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn mxv_matches_seq_at_many_thread_counts() {
        let a = adj();
        let mut u = DenseVector::new(3);
        u.set(0, 1i64);
        u.set(1, 10);
        u.set(2, 100);
        let want = gbtl_backend_seq::mxv(&a, &u, PlusTimes::<i64>::new(), None);
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            assert_eq!(mxv(&pool, &a, &u, PlusTimes::<i64>::new(), None), want);
        }
    }

    /// 1 000 rows — 15 presence words and 40 rows — of skewed lengths, so
    /// the nnz-balanced cuts fall mid-word and every segment's words are
    /// shifted onto the joined ones: bit-identical to seq at every thread
    /// count, over a partly and a fully present operand, unmasked and
    /// under a mask plain and complemented.
    #[test]
    fn segments_joined_across_unaligned_cuts_match_seq() {
        let n = 1000;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for k in 0..(i % 7) * (1 + i % 3) {
                coo.push(i, (i * 31 + k * 17) % n, (i + k) as i64 % 9 - 4);
            }
        }
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let mut part = DenseVector::new(n);
        (0..n)
            .filter(|j| j % 5 != 0)
            .for_each(|j| part.set(j, j as i64 % 11 - 5));
        let full = DenseVector::filled(n, 3i64);
        let mut keep = DenseVector::new(n);
        (0..n)
            .filter(|i| i % 3 != 1)
            .for_each(|i| keep.set(i, true));
        let sr = PlusTimes::<i64>::new();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            let cuts = nnz_balanced_rows(a.row_ptr(), threads * OVERSPLIT);
            assert!(
                cuts.iter().any(|r| r.start % 64 != 0),
                "{threads} threads: no cut mid-word in {cuts:?}"
            );
            let masks = [None, Some(false), Some(true)].map(|c| c.map(|c| VecMask::new(&keep, c)));
            for (u, mask) in [&part, &full]
                .into_iter()
                .flat_map(|u| masks.map(|m| (u, m)))
            {
                let want = gbtl_backend_seq::mxv(&a, u, sr, mask);
                assert_eq!(mxv(&pool, &a, u, sr, mask), want, "{threads} threads");
            }
        }
    }
}
