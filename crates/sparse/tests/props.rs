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
