//! The harness's own seeded generator (SplitMix64): every workload input
//! is a pure function of `--seed`, independent of the repo's `rand` shim,
//! so a change under `crates/` can never shift the inputs.

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label so the query
    /// mix, the sources and the parameters draw from separate sequences.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct items of `pool` (all of it when `k >= pool.len()`).
    pub fn sample(&mut self, pool: &[usize], k: usize) -> Vec<usize> {
        let mut p = pool.to_vec();
        self.shuffle(&mut p);
        p.truncate(k);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, "x"), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, "x"), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(8, "x"), |r, _| Some(r.next_u64()))
            .collect();
        let d: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, "y"), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn sample_is_distinct() {
        let mut r = Rng::new(1, "w");
        let pool: Vec<usize> = (0..50).collect();
        let mut s = r.sample(&pool, 20);
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 20);
    }
}
