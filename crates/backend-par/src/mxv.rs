//! Parallel matrix–vector products, both directions.
//!
//! * [`mxv`] (pull): rows are split into nnz-balanced contiguous chunks
//!   (binary search over `row_ptr`, merge-path style) and each chunk is
//!   `gbtl_backend_seq::mxv_rows`, so results are bit-identical to it.
//! * [`vxm`] (push) is a different algorithm from the sequential one, and
//!   the one product kernel this crate owns: a row split would have tasks
//!   collide on output columns, so output **columns** are split instead;
//!   each task walks the whole frontier but binary-searches every adjacency
//!   row down to its own column range and accumulates only there. For each
//!   output column the terms still arrive in frontier order (`k`
//!   ascending) — exactly the sequential order — and no two tasks ever
//!   write the same column, so the merge is an atomic-free concatenation.
//!   Every range pays one row walk per frontier entry whatever it finds
//!   there, so the number of ranges comes from the work
//!   ([`vxm_range_count`]): a small or low-degree frontier gets one range,
//!   which *is* the sequential kernel, run inline on the caller.

use crate::partition::{even_ranges, OVERSPLIT};
use crate::pool::ThreadPool;
use crate::schedule::{join_dense, join_entries, over_rows};
use gbtl_algebra::{BinaryOp, Scalar, Semiring};
use gbtl_backend_seq::mxv_rows;
use gbtl_sparse::{CsrMatrix, DenseVector, SparseVector, VecMask};
use gbtl_util::workspace;

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
    let segments = over_rows(pool, a.row_ptr(), |rows| mxv_rows(a, u, sr, mask, rows));
    join_dense(a.nrows(), segments)
}

/// Edge work one extra column range must bring to pay for its walk over
/// the frontier: a range binary-searches every frontier row down to its own
/// columns, ≈ 12–15 ns a row against ≈ 3 ns an edge (seq, rmat14 SSSP
/// rounds), so at 16 edges per row walk all the ranges' walks together stay
/// under a quarter of the edge work.
const EDGES_PER_ROW_WALK: usize = 16;

/// Edge work below which a range is not worth a worker: the scoped fan-out
/// of one dispatch costs ≈ 40 µs (see `pool`), about this many edges of
/// the sequential kernel.
const MIN_EDGES_PER_RANGE: usize = 16 * 1024;

/// How many column ranges [`vxm`] cuts for a frontier of `frontier_nnz`
/// entries carrying `push_edges` out-edges on `threads` workers: as many as
/// the edge work pays for, at most `threads × OVERSPLIT`, at least one.
/// One range means the dispatch runs inline as the sequential kernel.
pub fn vxm_range_count(threads: usize, frontier_nnz: usize, push_edges: usize) -> usize {
    if threads <= 1 {
        return 1;
    }
    let per_range = (frontier_nnz * EDGES_PER_ROW_WALK).max(MIN_EDGES_PER_RANGE);
    (push_edges / per_range).clamp(1, threads * OVERSPLIT)
}

/// Push-direction product `w = uᵀ ⊕.⊗ A` over a sparse frontier `u`;
/// `mask` is a keep test over output columns. Bit-identical to
/// `gbtl_backend_seq::vxm`.
pub fn vxm<T, D2, S>(
    pool: &ThreadPool,
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
    assert_eq!(
        u.len(),
        a.nrows(),
        "vxm dimension mismatch: len {} * {}x{}",
        u.len(),
        a.nrows(),
        a.ncols()
    );
    if let Some(keep) = mask {
        assert_eq!(keep.len(), a.ncols(), "mask length must equal output size");
    }
    let push_edges: usize = u.indices().iter().map(|&k| a.row_nnz(k)).sum();
    let nranges = vxm_range_count(pool.threads(), u.nnz(), push_edges);
    if nranges == 1 {
        // One range is the sequential kernel; through the pool so the
        // dispatch is counted (inline, on the caller).
        return pool
            .run_tasks(1, |_| gbtl_backend_seq::vxm(u, a, sr, mask))
            .pop()
            .expect("one task, one result");
    }
    let (add, mul) = (sr.add(), sr.mul());
    let n = a.ncols();
    let ranges = even_ranges(n, nranges);

    let parts = pool.run_tasks(ranges.len(), |t| {
        let cols = ranges[t].clone();
        let width = cols.len();
        workspace::with_accumulator(width, |acc: &mut Vec<Option<T>>| {
            workspace::with_index_buffer(|touched| {
                for (k, uk) in u.iter() {
                    let (rcols, rvals) = a.row(k);
                    // Narrow this adjacency row to the owned column range.
                    let lo = rcols.partition_point(|&j| j < cols.start);
                    for idx in lo..rcols.len() {
                        let j = rcols[idx];
                        if j >= cols.end {
                            break;
                        }
                        if mask.is_some_and(|keep| !keep.keeps(j)) {
                            continue;
                        }
                        let term = mul.apply(uk, rvals[idx]);
                        match &mut acc[j - cols.start] {
                            Some(v) => *v = add.apply(*v, term),
                            slot @ None => {
                                *slot = Some(term);
                                touched.push(j);
                            }
                        }
                    }
                }
                touched.sort_unstable();
                let vals: Vec<T> = touched
                    .iter()
                    .map(|&j| acc[j - cols.start].take().expect("touched implies present"))
                    .collect();
                (touched.clone(), vals)
            })
        })
    });

    let (idx, vals) = join_entries(parts);
    SparseVector::from_sorted(n, idx, vals).expect("column ranges ascend and are disjoint")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{MinPlus, PlusTimes};
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

    #[test]
    fn vxm_matches_seq_with_mask() {
        let a = adj();
        let mut u = SparseVector::new(3);
        u.set(0, 0i64);
        u.set(2, 5);
        let keep = [true, false, true];
        let mask = Some(VecMask::from(&keep[..]));
        let want = gbtl_backend_seq::vxm(&u, &a, MinPlus::<i64>::new(), mask);
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            assert_eq!(vxm(&pool, &u, &a, MinPlus::<i64>::new(), mask), want);
        }
    }

    /// `n` vertices; vertex `v < hubs` reaches every other vertex with a
    /// distinct weight, every vertex also has its 4 ring neighbours.
    fn hubs_on_a_ring(n: usize, hubs: usize) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(n, n);
        for v in 0..n {
            for d in [1, 2, n - 2, n - 1] {
                coo.push(v, (v + d) % n, (v % 7 + d % 5) as i64 + 1);
            }
        }
        for h in 0..hubs {
            for j in (0..n).step_by(2) {
                coo.push(h, j, (h * 31 + j) as i64 % 97 + 1);
            }
        }
        CsrMatrix::from_coo(coo, |a, b| a.min(b))
    }

    #[test]
    fn range_count_follows_the_work() {
        // no workers to fan out to, or too little work: one range
        assert_eq!(vxm_range_count(1, 10, 10_000_000), 1);
        assert_eq!(vxm_range_count(4, 0, 0), 1);
        assert_eq!(vxm_range_count(4, 1000, 4000), 1, "degree-4 frontier");
        assert_eq!(
            vxm_range_count(4, 1, 2 * MIN_EDGES_PER_RANGE - 1),
            1,
            "one hub under two ranges' worth of edges"
        );
        // enough edges per frontier row: one range per MIN_EDGES_PER_RANGE…
        assert_eq!(vxm_range_count(4, 40, 5 * MIN_EDGES_PER_RANGE), 5);
        // …or per EDGES_PER_ROW_WALK × |frontier|, whichever is larger…
        assert_eq!(vxm_range_count(4, 4096, 3 * 4096 * EDGES_PER_ROW_WALK), 3);
        // …capped at threads × OVERSPLIT
        assert_eq!(vxm_range_count(2, 1, usize::MAX / 2), 2 * OVERSPLIT);
    }

    #[test]
    fn vxm_is_bit_identical_and_one_range_runs_inline() {
        let n = 4096;
        let a = hubs_on_a_ring(n, 48);
        let mut hub_frontier = SparseVector::new(n);
        for h in 0..48 {
            hub_frontier.set(h, h as i64);
        }
        let mut ring_frontier = SparseVector::new(n);
        for v in (64..n).step_by(3) {
            ring_frontier.set(v, (v % 11) as i64);
        }
        let visited =
            DenseVector::from_options((0..n).map(|j| (j % 5 != 0).then_some(true)).collect());
        for (label, u, fans_out) in [
            ("hub-heavy", &hub_frontier, true),
            ("degree-4", &ring_frontier, false),
        ] {
            for mask in [
                None,
                Some(VecMask::new(&visited, false)),
                Some(VecMask::new(&visited, true)),
            ] {
                let want = gbtl_backend_seq::vxm(u, &a, MinPlus::<i64>::new(), mask);
                for threads in [1, 2, 4, 8] {
                    let pool = ThreadPool::with_threads(threads);
                    let got = vxm(&pool, u, &a, MinPlus::<i64>::new(), mask);
                    assert_eq!(got, want, "{label} at {threads} threads");
                    // one dispatch: fanned out when the work buys more
                    // than one range, else inline as the sequential kernel
                    let s = pool.stats();
                    let fanned = u64::from(fans_out && threads > 1);
                    assert_eq!(
                        (s.parallel_dispatches, s.inline_dispatches),
                        (fanned, 1 - fanned),
                        "{label} at {threads} threads"
                    );
                }
            }
        }
    }
}
