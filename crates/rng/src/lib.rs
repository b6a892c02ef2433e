//! A tiny deterministic PRNG for tests, baselines, and benches.
//!
//! The workspace builds offline, so it cannot pull `rand` from crates.io.
//! Everything that needs randomness — the random-search baseline, the
//! seeded property-test loops, the fuzzer's mutators — uses this
//! xorshift64* generator instead. It is explicitly seeded everywhere, so
//! every "random" run in this repository is reproducible by construction.
//!
//! xorshift64* (Vigna, "An experimental exploration of Marsaglia's
//! xorshift generators, scrambled") passes BigCrush on the high 32 bits
//! and is more than adequate for stimulus generation; nothing here is
//! cryptographic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A deterministic xorshift64* pseudo-random number generator.
///
/// ```
/// use symsc_rng::Rng;
/// let mut a = Rng::seed_from_u64(42);
/// let mut b = Rng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. A zero seed is remapped to a
    /// fixed non-zero constant (xorshift has a zero fixed point).
    pub fn seed_from_u64(seed: u64) -> Rng {
        // Mix the seed through splitmix64 so that close seeds (0, 1, 2…)
        // give uncorrelated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng {
            state: if z == 0 { 0x2545_F491_4F6C_DD1D } else { z },
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns the next 32 random bits (the high half of [`next_u64`],
    /// which is the better-distributed half for xorshift64*).
    ///
    /// [`next_u64`]: Rng::next_u64
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw from the inclusive range `lo..=hi`.
    ///
    /// Uses rejection sampling, so the distribution is exactly uniform.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "gen_range_inclusive: lo {lo} > hi {hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let span = span + 1;
        // Rejection zone: the incomplete final bucket of u64 space.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    /// A fair coin flip.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & (1 << 63) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::seed_from_u64(0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn range_stays_in_bounds_and_hits_endpoints() {
        let mut r = Rng::seed_from_u64(99);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..2000 {
            let v = r.gen_range_inclusive(3, 10);
            assert!((3..=10).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 10;
        }
        assert!(saw_lo && saw_hi, "both endpoints reachable");
    }

    #[test]
    fn degenerate_range_is_constant() {
        let mut r = Rng::seed_from_u64(5);
        for _ in 0..10 {
            assert_eq!(r.gen_range_inclusive(42, 42), 42);
        }
    }

    #[test]
    fn full_range_does_not_loop_forever() {
        let mut r = Rng::seed_from_u64(11);
        // span == u64::MAX + 1 takes the fast path.
        let _ = r.gen_range_inclusive(0, u64::MAX);
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut r = Rng::seed_from_u64(123);
        let heads = (0..10_000).filter(|_| r.gen_bool()).count();
        assert!((4_000..6_000).contains(&heads), "heads={heads}");
    }
}
