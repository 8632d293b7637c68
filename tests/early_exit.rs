//! Early exit, counted: a pull row of a BFS stops at its first frontier
//! neighbour, so on a scale-free graph's saturated level the rows read a
//! fraction of their entries. The count is exact and deterministic — it is
//! what `row_dot` reports and what cuda-sim's SpMV kernels charge.

use gbtl::algebra::LorLand;
use gbtl::algorithms::adjacency;
use gbtl::backend_seq::row_dot;
use gbtl::graphgen::{symmetrize, Rmat};
use gbtl::sparse::DenseVector;

#[test]
fn saturated_pull_level_reads_at_most_half_its_rows_entries() {
    let a = adjacency(symmetrize(&Rmat::new(12, 8).seed(1).generate()));
    // symmetric, so the rows of `A` are the rows pull reads (`Aᵀ`)
    let csr = a.csr();
    let n = csr.nrows();
    let hub = (0..n)
        .max_by_key(|&i| (csr.row_nnz(i), std::cmp::Reverse(i)))
        .unwrap();

    // level 1 is the hub's neighbourhood; level 2, pulled, is the level
    // where most unvisited rows have a neighbour in the frontier
    let mut visited = vec![false; n];
    let mut frontier = DenseVector::new(n);
    visited[hub] = true;
    for &j in csr.row(hub).0 {
        visited[j] = true;
        frontier.set(j, true);
    }
    let (mut consumed, mut scanned, mut reached) = (0, 0, 0);
    for i in (0..n).filter(|&i| !visited[i]) {
        let (cols, vals) = csr.row(i);
        let (dot, used) = row_dot(LorLand::new(), cols, vals, &frontier);
        assert!(used <= cols.len());
        if dot == Some(true) {
            reached += 1;
        } else {
            assert_eq!(used, cols.len(), "a row that found nothing was read whole");
        }
        consumed += used;
        scanned += cols.len();
    }
    assert!(
        reached * 2 > n - frontier.nnz(),
        "level 2 from the hub reaches most of the rest ({reached} rows)"
    );
    assert!(
        2 * consumed <= scanned,
        "{consumed} of {scanned} entries consumed: early exit should at least halve a saturated level"
    );
}
