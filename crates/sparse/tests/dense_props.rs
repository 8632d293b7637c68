//! Properties of the dense vector's layout — plain values plus packed
//! presence bits — against a `Vec<Option<T>>` model: arbitrary sequences of
//! `set`, `unset`, `filled`, a trip through `to_sparse`/`to_dense` and a
//! rebuild through `from_parts` or `from_fn`, at lengths 0..=200, for `u32`, `f64`
//! (`-0.0` and NaN included) and `bool`. After every step the vector reads
//! as the model does, a clear slot holds `T::default()`, and its presence
//! read as a [`VecMask`], plain or complemented, keeps what the model says.

use gbtl_algebra::Scalar;
use gbtl_sparse::{DenseVector, VecMask};
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

/// Steps: (kind, position, raw value).
fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, u32)>> {
    proptest::collection::vec((0u8..16, 0usize..1000, any::<u32>()), 0..64)
}

/// `f64` values the layout must keep apart or keep at all: signed zeros, a
/// NaN, infinities, a subnormal.
const FLOATS: [f64; 9] = [
    0.0,
    -0.0,
    f64::NAN,
    1.5,
    -2.25,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    f64::MAX,
];

/// Drive `ops` on a vector of length `n` and on the model side by side.
fn run<T: Scalar>(
    n: usize,
    ops: &[(u8, usize, u32)],
    val: impl Fn(u32) -> T,
    key: impl Fn(T) -> u64,
) {
    let mut d = DenseVector::new(n);
    let mut model: Vec<Option<T>> = vec![None; n];
    check(&d, &model, &key);
    for &(kind, at, raw) in ops {
        let (prev, prev_model) = (d.clone(), model.clone());
        let v = val(raw);
        match kind {
            0..=5 if n > 0 => {
                d.set(at % n, v);
                model[at % n] = Some(v);
            }
            6..=10 if n > 0 => {
                let got = d.unset(at % n);
                assert_eq!(got.map(&key), model[at % n].take().map(&key));
            }
            11 => {
                d = DenseVector::filled(n, v);
                model = vec![Some(v); n];
            }
            12 | 13 => {
                let s = d.to_sparse();
                assert_eq!(s.len(), n);
                let pairs: Vec<(usize, u64)> = s.iter().map(|(i, v)| (i, key(v))).collect();
                assert_eq!(pairs, present(&model, &key));
                d = s.to_dense();
            }
            14 => d = DenseVector::from_fn(n, |i| model[i]),
            _ => {
                // clear slots and the bits past the end dirtied: both reset
                let mut vals = d.values().to_vec();
                for (slot, m) in vals.iter_mut().zip(&model) {
                    if m.is_none() {
                        *slot = v;
                    }
                }
                let mut bits = d.bits().to_vec();
                if let Some(last) = bits.last_mut().filter(|_| !n.is_multiple_of(64)) {
                    *last |= u64::MAX << (n % 64);
                }
                d = DenseVector::from_parts(vals, bits);
            }
        }
        check(&d, &model, &key);
        assert_eq!(d == prev, model == prev_model, "equality after step {kind}");
    }
}

/// The model's present entries, in index order, through `key`.
fn present<T: Scalar>(model: &[Option<T>], key: &impl Fn(T) -> u64) -> Vec<(usize, u64)> {
    let entries = model.iter().enumerate();
    entries
        .filter_map(|(i, m)| m.map(|v| (i, key(v))))
        .collect()
}

/// `d` reads as `model`: values, presence, count, iteration order, the
/// default in every clear slot, and its presence as a mask both ways.
fn check<T: Scalar>(d: &DenseVector<T>, model: &[Option<T>], key: &impl Fn(T) -> u64) {
    let n = model.len();
    assert_eq!((d.len(), d.is_empty()), (n, n == 0));
    assert_eq!(d.nnz(), model.iter().flatten().count());
    assert_eq!((d.values().len(), d.bits().len()), (n, n.div_ceil(64)));
    for (i, m) in model.iter().enumerate() {
        assert_eq!(d.get(i).map(key), m.map(key), "get({i})");
        assert_eq!(d.contains(i), m.is_some(), "contains({i})");
        if m.is_none() {
            assert_eq!(key(d.values()[i]), key(T::default()), "clear slot {i}");
        }
    }
    let iterated: Vec<(usize, u64)> = d.iter().map(|(i, v)| (i, key(v))).collect();
    assert_eq!(iterated, present(model, key));

    let mask = DenseVector::from_parts(vec![true; n], d.bits().to_vec());
    let views = [
        (VecMask::new(&mask, false), false),
        (VecMask::new(&mask, true), true),
        (VecMask::unset_bits(d.bits(), n), true),
    ];
    for (view, complement) in views {
        assert_eq!((view.len(), view.is_empty()), (n, n == 0));
        for (i, m) in model.iter().enumerate() {
            assert_eq!(view.keeps(i), m.is_some() != complement, "keeps({i})");
        }
        // every word, and one past the last: nothing past `n` is kept
        for w in 0..=n.div_ceil(64) {
            let want = (64 * w..(64 * w + 64).min(n))
                .filter(|&i| model[i].is_some() != complement)
                .fold(0u64, |word, i| word | 1 << (i % 64));
            assert_eq!(
                view.keep_word(w),
                want,
                "keep_word({w}), complement {complement}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn u32_vectors_match_the_model(n in arb_len(), ops in arb_ops()) {
        run(n, &ops, |raw| raw % 5, u64::from);
    }

    #[test]
    fn f64_vectors_match_the_model(n in arb_len(), ops in arb_ops()) {
        run(n, &ops, |raw| FLOATS[raw as usize % FLOATS.len()], f64::to_bits);
    }

    #[test]
    fn bool_vectors_match_the_model(n in arb_len(), ops in arb_ops()) {
        run(n, &ops, |raw| raw % 2 == 1, u64::from);
    }
}
