//! The `Backend` defaults are the contract (SNIPPETS.md ADR-0001's
//! synthetic test backend): a backend that names itself, overrides one op
//! and inherits every other runs a whole algorithm equal to the sequential
//! reference.

use std::sync::atomic::{AtomicUsize, Ordering};

use gbtl_algebra::{Scalar, Second, Semiring};
use gbtl_algorithms::{bfs_levels, Direction};
use gbtl_core::{Backend, Context, Matrix};
use gbtl_sparse::{CsrMatrix, SparseVector, VecMask};

#[derive(Default)]
struct Probe {
    vxm_calls: AtomicUsize,
}

impl Backend for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn vxm<T: Scalar, D2: Scalar, S: Semiring<T, T, D2>>(
        &self,
        u: &SparseVector<T>,
        a: &CsrMatrix<D2>,
        sr: S,
        mask: Option<VecMask<'_>>,
    ) -> SparseVector<T> {
        self.vxm_calls.fetch_add(1, Ordering::Relaxed);
        gbtl_backend_seq::vxm(u, a, sr, mask)
    }
}

#[test]
fn a_backend_that_only_names_itself_runs_bfs_like_the_reference() {
    // a 6-path with a chord and an unreachable vertex 6
    let edges = [(0usize, 1usize), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)];
    let triples: Vec<_> = edges
        .iter()
        .flat_map(|&(i, j)| [(i, j, true), (j, i, true)])
        .collect();
    let a = Matrix::build(7, 7, triples, Second::new()).unwrap();

    let probe = Context::with_backend(Probe::default());
    let reference = Context::sequential();
    for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
        assert_eq!(
            bfs_levels(&probe, &a, 0, dir).unwrap(),
            bfs_levels(&reference, &a, 0, dir).unwrap(),
            "{dir:?}"
        );
    }
    assert_eq!(probe.backend_name(), "probe");
    assert!(
        probe.backend().vxm_calls.load(Ordering::Relaxed) > 0,
        "the push levels went through the override"
    );
}
