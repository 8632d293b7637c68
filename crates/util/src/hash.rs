//! FNV-1a 64 — the workspace's one definition. It digests the result
//! vectors `gbtl-serve` checksums on the wire (a word at a time,
//! [`fnv1a_word`]), the graph names and virtual-node labels `gbtl-shard`
//! places on its ring, and the loadgen's skew keys, so a change here
//! changes wire bytes and placement. The one exception is the `.gbsnap`
//! checksum, `gbtl_sparse::snapshot::checksum_fold`: a word-wise
//! FNV-style fold that is not FNV-1a and is part of that file format.

/// The FNV-1a 64 offset basis: the state before any byte.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`: folding `k` zero bytes multiplies the
/// state by it, since `(h ^ 0) · P = h · P`.
const PRIME_POWERS: [u64; 9] = {
    let mut t = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        t[k] = t[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    t
};

/// Fold `bytes` into the running state `h`. Chained calls over the pieces
/// of a stream equal one call over their concatenation.
#[inline]
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold `w`'s eight little-endian bytes into `h`: exactly
/// `fnv1a_fold(h, &w.to_le_bytes())`. The bytes up to `w`'s highest
/// nonzero one are folded one by one, and the zero bytes above it as one
/// multiply by a power of the prime, so a small index or value costs a
/// few multiplies, not eight.
#[inline]
pub fn fnv1a_word(mut h: u64, mut w: u64) -> u64 {
    let significant = 8 - (w.leading_zeros() / 8) as usize;
    for _ in 0..significant {
        h = (h ^ (w & 0xff)).wrapping_mul(FNV_PRIME);
        w >>= 8;
    }
    h.wrapping_mul(PRIME_POWERS[8 - significant])
}

/// FNV-1a 64 of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors_and_chains() {
        // test vectors from the FNV reference distribution
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_fold(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
