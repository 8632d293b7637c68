//! `Vector::iter` reads either representation to the same pairs: the
//! stored `(index, value)` pairs in index order, whether the vector holds
//! them as an index list or as presence words over value slots, and
//! `extract_tuples` returns exactly those pairs. Folding the iterator (what
//! `sum`, `max` and `count` do) sees them too.

use std::collections::BTreeMap;

use gbtl_algebra::Second;
use gbtl_core::Vector;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn both_representations_iterate_the_stored_pairs_in_order(
        n in 0usize..300,
        raw in proptest::collection::vec((any::<usize>(), any::<u64>()), 0..200),
    ) {
        // distinct indices, handed to `build` out of order
        let want: Vec<(usize, u64)> = raw
            .iter()
            .filter(|_| n > 0)
            .map(|&(i, x)| (i % n.max(1), x))
            .collect::<BTreeMap<_, _>>()
            .into_iter()
            .collect();
        let sparse = Vector::build(n, want.iter().rev().copied(), Second::new()).unwrap();
        let mut dense = sparse.clone();
        dense.densify();
        prop_assert!(sparse.is_sparse() && !dense.is_sparse());
        for v in [&sparse, &dense] {
            prop_assert_eq!(v.iter().collect::<Vec<_>>(), want.clone());
            let folded = v.iter().fold(Vec::new(), |mut acc, p| {
                acc.push(p);
                acc
            });
            prop_assert_eq!(folded, want.clone());
            let (idx, vals) = v.extract_tuples();
            prop_assert_eq!(idx.into_iter().zip(vals).collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(v.iter().count(), want.len());
        }
    }
}
