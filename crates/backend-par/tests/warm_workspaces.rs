//! The pool's helpers are long-lived threads, so their thread-local kernel
//! workspaces (`gbtl_util::workspace`) are allocated once per thread, not
//! once per dispatch. The workspace counters are process-global, which is
//! why this test has a file — a process — to itself.

use gbtl_algebra::PlusTimes;
use gbtl_backend_par::{mxm, mxm_masked, ThreadPool};
use gbtl_sparse::{CooMatrix, CsrMatrix};
use gbtl_util::workspace;

/// `n` vertices on a ring, each also reaching three chords.
fn chorded_ring(n: usize) -> CsrMatrix<i64> {
    let mut coo = CooMatrix::new(n, n);
    for v in 0..n {
        for d in [1, 7, 64, n - 1] {
            coo.push(v, (v + d) % n, (v % 5 + d % 3) as i64 + 1);
        }
    }
    CsrMatrix::from_coo(coo, |a, _| a)
}

#[test]
fn fanned_out_kernels_allocate_workspaces_per_thread_not_per_dispatch() {
    const THREADS: usize = 4;
    const DISPATCHES: u64 = 200;
    // accumulator and index list (`mxm_rows`), flag array and value
    // accumulator (`mxm_masked_rows`): one of each per thread that ever
    // runs a chunk
    const KINDS: u64 = 4;

    let a = chorded_ring(512);
    let mask = a
        .with_same_structure(vec![true; a.nnz()])
        .expect("one value per stored entry");
    let sr = PlusTimes::<i64>::new();
    let want = gbtl_backend_seq::mxm(&a, &a, sr);
    let want_masked = gbtl_backend_seq::mxm_masked(&mask, &a, &a, sr);

    let pool = ThreadPool::with_threads(THREADS);
    let before = workspace::stats();
    for _ in 0..DISPATCHES {
        assert_eq!(mxm(&pool, &a, &a, sr), want);
        assert_eq!(mxm_masked(&pool, &mask, &a, &a, sr), want_masked);
    }
    let after = workspace::stats();

    assert_eq!(pool.stats().parallel_dispatches, 2 * DISPATCHES);
    assert!(after.takes - before.takes >= 2 * DISPATCHES * KINDS);
    let allocs = after.allocs - before.allocs;
    assert!(
        allocs <= THREADS as u64 * KINDS,
        "{allocs} workspace allocations over {} fanned-out dispatches on {THREADS} threads",
        2 * DISPATCHES
    );
}
