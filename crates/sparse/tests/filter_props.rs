//! Properties of the in-place filters, `SparseVector::retain` and
//! `DenseVector::retain`, against `iter().filter(..).collect()`: at lengths
//! 0..=200 and at the word edges, keeping none, all, alternate entries, an
//! arbitrary set or a value test, from input in either form. Each filter
//! asks about every stored entry once, in index order; what it keeps reads
//! as the collected list does, and equals that list built from scratch (a
//! dense filter leaves no bit, count or value behind in a cleared slot).

use gbtl_sparse::{DenseVector, SparseVector};
use proptest::prelude::*;

/// Lengths around the word boundaries, drawn beside arbitrary ones.
const EDGES: [usize; 10] = [0, 1, 63, 64, 65, 127, 128, 129, 192, 200];

/// A length: arbitrary in 0..=200 half the time, a word edge otherwise.
fn arb_len() -> impl Strategy<Value = usize> {
    (0usize..=200, any::<bool>(), 0..EDGES.len()).prop_map(|(n, edge, k)| match edge {
        true => EDGES[k],
        false => n,
    })
}

/// A keep rule, stateful where it counts the entries asked so far.
fn rule(kind: u8, pick: &[bool]) -> impl FnMut(usize, u32) -> bool + '_ {
    let mut asked = 0usize;
    move |i, v| {
        asked += 1;
        match kind {
            0 => false,
            1 => true,
            2 => asked % 2 == 1,
            3 => pick[i],
            _ => v % 3 == 0,
        }
    }
}

/// The dense vector of length `n` holding `pairs`.
fn dense(n: usize, pairs: &[(usize, u32)]) -> DenseVector<u32> {
    let mut d = DenseVector::new(n);
    pairs.iter().for_each(|&(i, v)| d.set(i, v));
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn retain_is_filter_then_collect(
        n in arb_len(),
        present in proptest::collection::vec(any::<bool>(), 200),
        full in any::<bool>(),
        vals in proptest::collection::vec(any::<u32>(), 200),
        pick in proptest::collection::vec(any::<bool>(), 200),
        kind in 0u8..5,
    ) {
        let input = DenseVector::from_fn(n, |i| (full || present[i]).then_some(vals[i]));
        let all: Vec<(usize, u32)> = input.iter().collect();
        let mut keep = rule(kind, &pick);
        let want: Vec<(usize, u32)> = input.iter().filter(|&(i, v)| keep(i, v)).collect();

        // index-list form, from the dense form
        let mut s = input.to_sparse();
        let mut asked = Vec::new();
        let mut keep = rule(kind, &pick);
        s.retain(|i, v| {
            asked.push((i, v));
            keep(i, v)
        });
        prop_assert_eq!(&asked, &all);
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), want.clone());
        let (idx, kept): (Vec<usize>, Vec<u32>) = want.iter().copied().unzip();
        prop_assert_eq!(&s, &SparseVector::from_sorted(n, idx, kept).unwrap());

        // dense form, in place
        let mut d = input.clone();
        let mut asked = Vec::new();
        let mut keep = rule(kind, &pick);
        d.retain(|i, v| {
            asked.push((i, v));
            keep(i, v)
        });
        prop_assert_eq!(&asked, &all);
        prop_assert_eq!(d.iter().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(d.nnz(), want.len());
        prop_assert_eq!(&d, &dense(n, &want));
    }
}

#[test]
fn keeping_none_or_all_at_every_word_edge() {
    for n in EDGES {
        let full = DenseVector::from_values((0..n as u32).collect());
        let mut none = full.clone();
        none.retain(|_, _| false);
        assert_eq!(none, DenseVector::new(n), "n = {n}");
        let mut all = full.clone();
        all.retain(|_, _| true);
        assert_eq!(all, full, "n = {n}");
        let mut s = full.to_sparse();
        s.retain(|i, _| i + 1 == n);
        assert_eq!(s.indices(), if n > 0 { vec![n - 1] } else { vec![] });
    }
}
