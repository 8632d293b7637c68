//! `fnv1a_word` is byte-wise FNV-1a over a word's eight little-endian
//! bytes, whatever the state it starts from and however many of those
//! bytes are significant.

use gbtl_util::hash::{fnv1a_fold, fnv1a_word, FNV_OFFSET};
use proptest::prelude::*;

fn bytewise(h: u64, w: u64) -> u64 {
    fnv1a_fold(h, &w.to_le_bytes())
}

/// A word with exactly `k` significant bytes (`k == 0` is zero): its top
/// significant byte nonzero, the bytes below it arbitrary.
fn word_of(k: u32, low: u64, top: u8) -> u64 {
    match k {
        0 => 0,
        k => {
            let below = if k == 1 {
                0
            } else {
                low & (u64::MAX >> (64 - 8 * (k - 1)))
            };
            below | u64::from(top.max(1)) << (8 * (k - 1))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn a_word_folds_as_its_bytes(h in any::<u64>(), k in 0u32..=8, low in any::<u64>(), top in any::<u8>()) {
        let w = word_of(k, low, top);
        prop_assert_eq!(8 - w.leading_zeros() / 8, k);
        prop_assert_eq!(fnv1a_word(h, w), bytewise(h, w));
    }
}

#[test]
fn the_edges_fold_as_their_bytes() {
    let edges = [0, 1, 255, 256, 65_535, 65_536, 1 << 56, 1 << 63, u64::MAX];
    for h in [0, 1, FNV_OFFSET, u64::MAX, 0x8000_0000_0000_0000] {
        for w in edges {
            assert_eq!(fnv1a_word(h, w), bytewise(h, w), "h={h:#x} w={w:#x}");
        }
    }
    // chained words are one stream of bytes
    let chained = fnv1a_word(fnv1a_word(FNV_OFFSET, 7), 1 << 40);
    let mut bytes = 7u64.to_le_bytes().to_vec();
    bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
    assert_eq!(chained, fnv1a_fold(FNV_OFFSET, &bytes));
}
