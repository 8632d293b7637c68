//! Property tests for container invariants and conversions.

use gbtl_sparse::{mmio, CooMatrix, CsrMatrix, SparseVector};
use proptest::prelude::*;

/// Strategy: an arbitrary small COO matrix with possibly-duplicate triples.
fn arb_coo() -> impl Strategy<Value = CooMatrix<i64>> {
    (1usize..20, 1usize..20).prop_flat_map(|(nrows, ncols)| {
        proptest::collection::vec((0..nrows, 0..ncols, -100i64..100), 0..200).prop_map(
            move |triples| {
                let mut coo = CooMatrix::new(nrows, ncols);
                for (r, c, v) in triples {
                    coo.push(r, c, v);
                }
                coo
            },
        )
    })
}

proptest! {
    /// CSR built from COO always satisfies validate().
    #[test]
    fn csr_from_coo_is_valid(coo in arb_coo()) {
        let csr = CsrMatrix::from_coo(coo, |a, b| a + b);
        prop_assert!(csr.validate().is_ok());
    }

    /// Building CSR sums duplicates exactly like a hash-map reference.
    #[test]
    fn csr_matches_hashmap_reference(coo in arb_coo()) {
        use std::collections::HashMap;
        let mut reference: HashMap<(usize, usize), i64> = HashMap::new();
        for (r, c, v) in coo.iter() {
            *reference.entry((r, c)).or_insert(0) += v;
        }
        let csr = CsrMatrix::from_coo(coo, |a, b| a + b);
        prop_assert_eq!(csr.nnz(), reference.len());
        for (r, c, v) in csr.iter() {
            prop_assert_eq!(reference.get(&(r, c)), Some(&v));
        }
    }

    /// Double transpose is the identity.
    #[test]
    fn transpose_is_involution(coo in arb_coo()) {
        let csr = CsrMatrix::from_coo(coo, |a, b| a + b);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    /// Transpose preserves every entry at swapped coordinates.
    #[test]
    fn transpose_swaps_coordinates(coo in arb_coo()) {
        let csr = CsrMatrix::from_coo(coo, |a, b| a + b);
        let t = csr.transpose();
        prop_assert_eq!(csr.nnz(), t.nnz());
        for (r, c, v) in csr.iter() {
            prop_assert_eq!(t.get(c, r), Some(v));
        }
    }

    /// Matrix Market write/read round-trips a dedup'd COO exactly.
    #[test]
    fn mmio_round_trip(coo in arb_coo()) {
        let mut coo = coo;
        coo.sort_dedup(|a, b| a + b);
        let mut buf = Vec::new();
        mmio::write_coo(&coo, &mut buf).unwrap();
        let back = mmio::read_coo::<i64, _>(&buf[..]).unwrap();
        prop_assert_eq!(back, coo);
    }

    /// SparseVector::from_pairs agrees with sequential set/merge.
    #[test]
    fn sparse_vector_from_pairs(n in 1usize..64,
                                pairs in proptest::collection::vec((0usize..64, -50i64..50), 0..80)) {
        let pairs: Vec<_> = pairs.into_iter().filter(|&(i, _)| i < n).collect();
        let v = SparseVector::from_pairs(n, pairs.clone(), |a, b| a + b).unwrap();
        let mut reference = std::collections::BTreeMap::new();
        for (i, x) in pairs {
            *reference.entry(i).or_insert(0) += x;
        }
        prop_assert_eq!(v.nnz(), reference.len());
        for (i, x) in v.iter() {
            prop_assert_eq!(reference.get(&i), Some(&x));
        }
        // indices strictly increasing
        prop_assert!(v.indices().windows(2).all(|w| w[0] < w[1]));
    }

    /// Dense <-> sparse vector conversions are inverses.
    #[test]
    fn vector_conversions(n in 1usize..64,
                          pairs in proptest::collection::vec((0usize..64, -50i64..50), 0..80)) {
        let pairs: Vec<_> = pairs.into_iter().filter(|&(i, _)| i < n).collect();
        let v = SparseVector::from_pairs(n, pairs, |_, b| b).unwrap();
        prop_assert_eq!(v.to_dense().to_sparse(), v);
    }
}

/// The structure-id contract a charge memo keys on: a clone and
/// `with_same_structure` share the structure itself (its id and its very
/// arrays), `vals_mut` keeps it, every construction stamps one never seen
/// before, and `==` compares the matrix, not the id.
#[test]
fn structure_ids_follow_the_structure_not_the_values() {
    let mut coo = CooMatrix::new(3, 3);
    for (r, c, v) in [(0, 1, 4i64), (1, 2, 5), (2, 0, 6)] {
        coo.push(r, c, v);
    }
    let a = CsrMatrix::from_coo(coo.clone(), |x, _| x);
    let mut b = a.clone();
    let flags = a.with_same_structure(vec![true; a.nnz()]).unwrap();
    for (id, row_ptr, col_idx) in [
        (b.structure_id(), b.row_ptr().as_ptr(), b.col_idx().as_ptr()),
        (
            flags.structure_id(),
            flags.row_ptr().as_ptr(),
            flags.col_idx().as_ptr(),
        ),
    ] {
        assert_eq!(id, a.structure_id());
        assert_eq!(row_ptr, a.row_ptr().as_ptr());
        assert_eq!(col_idx, a.col_idx().as_ptr());
    }
    b.vals_mut()[0] = 40;
    assert_eq!(b.structure_id(), a.structure_id());
    assert_ne!(a, b);

    let rebuilt = [
        CsrMatrix::from_coo(coo.clone(), |x, _| x),
        CsrMatrix::from_sorted_coo(&coo),
        CsrMatrix::from_parts(
            3,
            3,
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.vals().to_vec(),
        )
        .unwrap(),
        CsrMatrix::from_parts_unchecked(
            3,
            3,
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.vals().to_vec(),
        ),
        a.transpose().transpose(),
    ];
    let mut ids: Vec<u64> = rebuilt.iter().map(CsrMatrix::structure_id).collect();
    ids.extend([a.structure_id(), CsrMatrix::<i64>::new(3, 3).structure_id()]);
    for m in &rebuilt {
        assert_eq!(m, &a, "equal matrices under distinct ids");
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), rebuilt.len() + 2, "a construction reused an id");
}

proptest! {
    /// `retain` on a matrix whose structure is shared gives it a structure
    /// of its own: the sibling keeps its arrays, its id and its equality.
    #[test]
    fn retain_leaves_a_structure_sibling_untouched(coo in arb_coo(), cut in -100i64..100) {
        let a = CsrMatrix::from_coo(coo, |x, _| x);
        let sibling = a.with_same_structure(a.vals().iter().map(|&v| v * 2).collect()).unwrap();
        let before = CsrMatrix::from_parts(
            a.nrows(),
            a.ncols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            sibling.vals().to_vec(),
        )
        .unwrap();
        let (id, row_ptr, col_idx) =
            (sibling.structure_id(), sibling.row_ptr().as_ptr(), sibling.col_idx().as_ptr());
        let mut kept = a.clone();
        kept.retain(|_, _, v| v < cut);
        kept.validate().unwrap();
        prop_assert_ne!(kept.structure_id(), id);
        prop_assert_eq!(sibling.structure_id(), id);
        prop_assert_eq!(sibling.row_ptr().as_ptr(), row_ptr);
        prop_assert_eq!(sibling.col_idx().as_ptr(), col_idx);
        prop_assert_eq!(&sibling, &before);
        prop_assert_eq!(
            kept.iter().collect::<Vec<_>>(),
            a.iter().filter(|&(_, _, v)| v < cut).collect::<Vec<_>>()
        );
    }
}
